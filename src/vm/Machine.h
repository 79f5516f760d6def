//===- vm/Machine.h - Compiled-code target representation -------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-level program representation both compiler backends (the
/// conservative Android pipeline and the LLVM-like pipeline) emit, and the
/// executor runs under the cycle cost model. Unlike the bytecode, checks
/// (null/bounds/div), GC safepoints, speculation guards and intrinsics are
/// explicit instructions here — so optimization passes can legally remove,
/// hoist or strengthen them, and unsound passes can genuinely break the
/// program.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_VM_MACHINE_H
#define ROPT_VM_MACHINE_H

#include "dex/DexFile.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ropt {
namespace vm {

enum class MOpcode : uint8_t {
  MNop,

  MMovImmI, ///< A = ImmI
  MMovImmF, ///< A = ImmF
  MMov,     ///< A = B

  MAddI, MSubI, MMulI, MDivI, MRemI, ///< MDivI/MRemI are *unchecked*.
  MAndI, MOrI, MXorI, MShlI, MShrI,
  MNegI,

  MAddF, MSubF, MMulF, MDivF,
  MNegF, MCmpF, MSqrtF,
  MI2F, MF2I,

  MGoto,
  MIfEq, MIfNe, MIfLt, MIfLe, MIfGt, MIfGe,       ///< regs B ? C
  MIfEqz, MIfNez, MIfLtz, MIfLez, MIfGtz, MIfGez, ///< reg B ? 0

  MCheckNull,   ///< trap NullPointer if reg B == 0
  MCheckBounds, ///< trap OutOfBounds unless 0 <= reg C < length(reg B)
  MCheckDiv,    ///< trap DivByZero if reg B == 0
  MSafepoint,   ///< GC poll
  MGuardClass,  ///< branch to Target unless class(reg B) == Idx

  MLoadSlot,    ///< A = obj(B).slot(Idx)         (unchecked)
  MStoreSlot,   ///< obj(B).slot(Idx) = A         (unchecked)
  MLoadStatic,  ///< A = statics[Idx]
  MStoreStatic, ///< statics[Idx] = A
  MALoad,       ///< A = arr(B)[C]                (unchecked)
  MAStore,      ///< arr(B)[C] = A                (unchecked)
  MArrayLen,    ///< A = length(arr B)            (requires non-null B)

  MNewInstance, ///< A = new object of class Idx
  MNewArray,    ///< A = new array, kind Idx (ObjKind), length reg B

  MCallStatic,  ///< A = call method Idx(args)
  MCallVirtual, ///< A = dispatch declared method Idx through Args[0]
  MCallNative,  ///< A = native Idx(args)
  MIntrinsic,   ///< A = intrinsic Idx(args); inlined math

  MRet,    ///< return reg B
  MRetVoid,

  /// Never emitted: the sentinel that ends every executable form. Reaching
  /// it faults without counting an instruction, like running past the
  /// last MInsn.
  MEnd,

  MOpcodeCount,
};

/// Math intrinsics the backend can inline in place of JNI natives.
enum class IntrinsicKind : uint8_t {
  Sin, Cos, Tan, Exp, Log, Floor, AbsF, Pow, Atan2, MinF, MaxF,
  IntrinsicCount,
};

/// Maps a native's declared IntrinsicKind string ("sin", ...) to the enum;
/// returns false when there is no intrinsic for it.
bool intrinsicFromName(const std::string &Name, IntrinsicKind &Out);

/// Work-cycle cost of one inlined intrinsic (relative weights follow the
/// native-side costs, minus the transition).
uint32_t intrinsicWorkCycles(IntrinsicKind Kind);

/// Branch-likelihood hint set by the compiler. Unhinted branches go through
/// the dynamic predictor.
enum class BranchHint : int8_t {
  None = -1,
  Unlikely = 0,
  Likely = 1,
};

/// Maximum call arguments, matching the bytecode.
constexpr unsigned MMaxArgs = 8;
using MRegIdx = uint16_t;
constexpr MRegIdx MNoReg = 0xffff;

/// One machine instruction.
struct MInsn {
  MOpcode Op = MOpcode::MNop;
  MRegIdx A = MNoReg;
  MRegIdx B = MNoReg;
  MRegIdx C = MNoReg;
  int32_t Target = -1;
  uint32_t Idx = 0;
  /// Bytecode-pc provenance for profile-keyed passes (devirtualization);
  /// ~0u when the instruction has no bytecode origin.
  uint32_t Site = 0xffffffff;
  int64_t ImmI = 0;
  double ImmF = 0.0;
  BranchHint Hint = BranchHint::None;
  uint8_t ArgCount = 0;
  MRegIdx Args[MMaxArgs] = {};
};

/// Number of architectural registers; virtual registers beyond this are
/// "spilled" and each touch pays a penalty. Register allocation quality is
/// therefore a genuine performance dimension.
constexpr MRegIdx PhysRegCount = 24;

/// One compiled function.
struct MachineFunction {
  dex::MethodId Method = dex::InvalidId;
  std::string Name;
  uint16_t NumRegs = 0;
  uint16_t ParamCount = 0;
  bool ReturnsValue = false;
  std::vector<MInsn> Code;

  /// Binary size estimate used for storage accounting and as the GA's
  /// fitness tiebreak (smaller wins at equal speed).
  uint64_t sizeBytes() const { return Code.size() * 4; }
};

/// One instruction of an executable form: the MInsn at the same index,
/// decoded once at install so the executor's step does no operand scan.
struct ExecInsn {
  MOpcode Op = MOpcode::MEnd;
  BranchHint Hint = BranchHint::None;
  uint8_t ArgCount = 0;
  /// Operand touches of registers past PhysRegCount (A, B, C and call
  /// arguments); always 0 in a frame that fits the register file.
  uint8_t SpillTouches = 0;
  MRegIdx A = MNoReg;
  MRegIdx B = MNoReg;
  MRegIdx C = MNoReg;
  /// Branch target; a target outside the code is the sentinel's index.
  uint32_t Target = 0;
  uint32_t Idx = 0;
  /// First argument register in ExecFunction::ArgPool.
  uint32_t ArgBase = 0;
  /// Register bits an immediate move writes (ImmI, or ImmF's bits).
  uint64_t Imm = 0;
};

static_assert(sizeof(ExecInsn) == 32, "two executable insns per line");

/// The executable form of one MachineFunction: one ExecInsn per MInsn at
/// the same index (branch targets and predictor sites are unchanged),
/// then an MEnd sentinel, so the executor needs no end-of-code test.
struct ExecFunction {
  dex::MethodId Method = dex::InvalidId;
  uint16_t NumRegs = 0;
  uint16_t ParamCount = 0;
  std::vector<ExecInsn> Code;
  std::vector<MRegIdx> ArgPool; ///< Call and intrinsic argument registers.
};

/// Decodes \p Fn into its executable form.
ExecFunction decodeMachine(const MachineFunction &Fn);

/// The set of compiled methods a runtime executes from. Replays swap whole
/// caches to compare code versions. Each installed function is decoded
/// once into the executable form the runtime runs; it must not change
/// after install.
class CodeCache {
public:
  void install(std::shared_ptr<MachineFunction> Fn) {
    dex::MethodId Id = Fn->Method;
    Executable.insert_or_assign(Id, decodeMachine(*Fn));
    Functions[Id] = std::move(Fn);
  }

  const MachineFunction *lookup(dex::MethodId Id) const {
    auto It = Functions.find(Id);
    return It == Functions.end() ? nullptr : It->second.get();
  }

  /// The executable form of \p Id; nullptr when it is not installed.
  const ExecFunction *lookupExec(dex::MethodId Id) const {
    auto It = Executable.find(Id);
    return It == Executable.end() ? nullptr : &It->second;
  }

  void remove(dex::MethodId Id) {
    Functions.erase(Id);
    Executable.erase(Id);
  }
  void clear() {
    Functions.clear();
    Executable.clear();
  }
  size_t size() const { return Functions.size(); }

  uint64_t totalSizeBytes() const {
    uint64_t Total = 0;
    for (const auto &KV : Functions)
      Total += KV.second->sizeBytes();
    return Total;
  }

  const std::map<dex::MethodId, std::shared_ptr<MachineFunction>> &
  functions() const {
    return Functions;
  }

private:
  std::map<dex::MethodId, std::shared_ptr<MachineFunction>> Functions;
  std::map<dex::MethodId, ExecFunction> Executable;
};

/// Mnemonic for \p Op.
const char *mopcodeName(MOpcode Op);

/// True for MGoto / MIf* (not guards).
bool isMBranch(MOpcode Op);

/// True for the MIf* family.
bool isMCondBranch(MOpcode Op);

} // namespace vm
} // namespace ropt

#endif // ROPT_VM_MACHINE_H
