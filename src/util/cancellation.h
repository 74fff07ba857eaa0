#ifndef SEMDRIFT_UTIL_CANCELLATION_H_
#define SEMDRIFT_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace semdrift {

/// Thrown by PollCancellation() when the current token's deadline passed or
/// it was cancelled explicitly. StageGuard (util/supervisor.h) catches it at
/// the stage boundary and turns it into a retry/quarantine decision; it never
/// crosses a library API boundary.
class StageCancelledError : public std::runtime_error {
 public:
  explicit StageCancelledError(const std::string& why) : std::runtime_error(why) {}
};

/// Cooperative cancellation: a flag plus an optional wall-clock deadline that
/// long-running kernels poll. Cancellation is *cooperative by design* — a
/// token never preempts anything, so on the happy path (deadline not hit,
/// never cancelled) polling has zero effect on results: bit-identical output
/// with or without a token installed.
///
/// Thread-safe: Cancel/Cancelled/ExpiredNow may race freely.
class CancellationToken {
 public:
  CancellationToken() = default;

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Arms a deadline `timeout` from now. <= 0 disarms.
  void ArmDeadline(std::chrono::milliseconds timeout) {
    if (timeout.count() <= 0) {
      has_deadline_ = false;
      return;
    }
    deadline_ = std::chrono::steady_clock::now() + timeout;
    has_deadline_ = true;
  }

  /// Requests cancellation (sticky).
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True when cancelled explicitly or the armed deadline has passed.
  bool ShouldStop() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  /// The token installed on the calling thread (nullptr outside any
  /// supervised stage). The thread pool propagates the submitting thread's
  /// token to its workers for the duration of each job, so parallel
  /// sub-work inside a guarded stage polls the stage's own token.
  static const CancellationToken* Current();

 private:
  std::atomic<bool> cancelled_{false};
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// Installs `token` as the calling thread's current token for this scope
/// (saving and restoring the previous one, so guards nest).
class ScopedCancellation {
 public:
  explicit ScopedCancellation(const CancellationToken* token);
  ~ScopedCancellation();

  ScopedCancellation(const ScopedCancellation&) = delete;
  ScopedCancellation& operator=(const ScopedCancellation&) = delete;

 private:
  const CancellationToken* previous_;
};

/// Poll point for long loops (the RWR power iteration, injected stalls):
/// throws StageCancelledError when the current token says stop, does nothing
/// when no token is installed. Cheap — one thread-local read outside a
/// guarded stage, plus a relaxed load under a token without a deadline.
void PollCancellation(const char* where);

}  // namespace semdrift

#endif  // SEMDRIFT_UTIL_CANCELLATION_H_
