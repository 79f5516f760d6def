//===- vm/Native.cpp - JNI-style native method registry --------------------===//

#include "vm/Native.h"

#include "vm/IntOps.h"

#include <cmath>

using namespace ropt;
using namespace ropt::vm;

void NativeRegistry::add(const std::string &Name, NativeFn Fn,
                         uint32_t WorkCycles) {
  Impls[Name] = NativeImpl{std::move(Fn), WorkCycles};
}

const NativeImpl *NativeRegistry::lookup(const std::string &Name) const {
  auto It = Impls.find(Name);
  return It == Impls.end() ? nullptr : &It->second;
}

NativeRegistry NativeRegistry::standardLibrary() {
  NativeRegistry R;
  auto Unary = [](double (*F)(double)) {
    return [F](NativeContext &, const std::vector<Value> &Args) {
      return Value::fromF64(F(Args[0].asF64()));
    };
  };
  auto Binary = [](double (*F)(double, double)) {
    return [F](NativeContext &, const std::vector<Value> &Args) {
      return Value::fromF64(F(Args[0].asF64(), Args[1].asF64()));
    };
  };

  // Math: deterministic, replaceable with intrinsics by the LLVM backend.
  R.add("sin", Unary(std::sin), 60);
  R.add("cos", Unary(std::cos), 60);
  R.add("tan", Unary(std::tan), 70);
  R.add("exp", Unary(std::exp), 60);
  R.add("log", Unary(std::log), 60);
  R.add("floor", Unary(std::floor), 20);
  R.add("absF", Unary(std::fabs), 10);
  R.add("pow", Binary(std::pow), 90);
  R.add("atan2", Binary(std::atan2), 90);
  R.add("minF", Binary([](double A, double B) { return A < B ? A : B; }),
        10);
  R.add("maxF", Binary([](double A, double B) { return A > B ? A : B; }),
        10);

  // I/O: appends to the io log / consumes the scripted input queue. The
  // replayability analysis blocklists every method that reaches these.
  auto LogOp = [](int64_t Tag) {
    return [Tag](NativeContext &Ctx, const std::vector<Value> &Args) {
      if (Ctx.IoLog) {
        Ctx.IoLog->push_back(Tag);
        for (const Value &V : Args)
          Ctx.IoLog->push_back(V.asI64());
      }
      return Value();
    };
  };
  R.add("print", LogOp(1), 400);
  R.add("drawCell", LogOp(2), 520);
  R.add("vibrate", LogOp(3), 500);
  R.add("writeRecord", LogOp(4), 800);
  R.add("readInput",
        [](NativeContext &Ctx, const std::vector<Value> &) {
          if (Ctx.InputQueue && !Ctx.InputQueue->empty()) {
            int64_t V = Ctx.InputQueue->front();
            Ctx.InputQueue->pop_front();
            return Value::fromI64(V);
          }
          return Value::fromI64(-1);
        },
        200);

  // Heavyweight app natives: an external chess-engine probe and an asset
  // decoder. Both are opaque C/C++ the replay system blocklists (they are
  // declared DoesIO in the dex files that use them).
  R.add("engineProbe",
        [](NativeContext &, const std::vector<Value> &Args) {
          uint64_t H = static_cast<uint64_t>(Args[0].asI64());
          H ^= H >> 33;
          H *= 0xff51afd7ed558ccdULL;
          H ^= H >> 29;
          return Value::fromI64(static_cast<int64_t>(H % 2000) - 1000);
        },
        20000);
  R.add("decodeAsset",
        [](NativeContext &, const std::vector<Value> &Args) {
          return Value::fromI64(wrapMul(Args[0].asI64(), 2654435761LL));
        },
        4000);

  // Non-deterministic services: blocklisted for capture.
  R.add("currentTimeMillis",
        [](NativeContext &Ctx, const std::vector<Value> &) {
          return Value::fromI64(static_cast<int64_t>(Ctx.NowMillis));
        },
        30);
  R.add("randomInt",
        [](NativeContext &Ctx, const std::vector<Value> &Args) {
          int64_t Bound = Args[0].asI64();
          if (Bound <= 0 || !Ctx.EnvRng)
            return Value::fromI64(0);
          return Value::fromI64(static_cast<int64_t>(
              Ctx.EnvRng->below(static_cast<uint64_t>(Bound))));
        },
        40);
  return R;
}
