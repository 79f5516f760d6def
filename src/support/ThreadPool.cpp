//===- support/ThreadPool.cpp - Fixed-size worker pool ------------------------===//

#include "support/ThreadPool.h"

#include "support/Trace.h"

#include <atomic>
#include <latch>

using namespace ropt;

size_t ThreadPool::defaultThreadCount() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

ThreadPool::ThreadPool(size_t Threads) {
  if (Threads == 0)
    Threads = defaultThreadCount();
  // Every worker registers its trace lane name before the constructor
  // returns, so the names are complete however few tasks the pool runs.
  std::latch Registered(static_cast<std::ptrdiff_t>(Threads));
  Workers.reserve(Threads);
  for (size_t I = 0; I != Threads; ++I)
    Workers.emplace_back([this, I, &Registered] {
      TraceRecorder::instance().setCurrentThreadName(
          "worker-" + std::to_string(I));
      Registered.count_down();
      workerMain();
    });
  Registered.wait();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
    Queue.clear();
  }
  Cv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerMain() {
  for (;;) {
    std::packaged_task<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Cv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Stopping && Queue.empty())
        return;
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task(); // packaged_task captures exceptions into the future
  }
}

std::future<void> ThreadPool::submit(std::function<void()> Task) {
  std::packaged_task<void()> Packaged(std::move(Task));
  std::future<void> Future = Packaged.get_future();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Packaged));
  }
  Cv.notify_one();
  return Future;
}

void ThreadPool::parallelFor(
    size_t N, const std::function<void(size_t, size_t)> &Body) {
  if (N == 0)
    return;
  size_t Runners = std::min(size(), N);
  if (Runners <= 1) {
    for (size_t I = 0; I != N; ++I)
      Body(I, 0);
    return;
  }

  std::atomic<size_t> Next{0};
  std::mutex ErrorMutex;
  std::exception_ptr FirstError;

  std::vector<std::future<void>> Futures;
  Futures.reserve(Runners);
  for (size_t Slot = 0; Slot != Runners; ++Slot) {
    Futures.push_back(submit([&, Slot] {
      for (;;) {
        size_t I = Next.fetch_add(1, std::memory_order_relaxed);
        if (I >= N)
          return;
        try {
          Body(I, Slot);
        } catch (...) {
          {
            std::lock_guard<std::mutex> Lock(ErrorMutex);
            if (!FirstError)
              FirstError = std::current_exception();
          }
          Next.store(N, std::memory_order_relaxed); // stop the sweep
          return;
        }
      }
    }));
  }
  for (std::future<void> &F : Futures)
    F.get();
  if (FirstError)
    std::rethrow_exception(FirstError);
}
