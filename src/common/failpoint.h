#ifndef HERMES_COMMON_FAILPOINT_H_
#define HERMES_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/lock_order.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"

/// Deterministic fault injection for the storage stack (DESIGN.md §9).
///
/// A failpoint is a named site at an I/O boundary (WAL append, snapshot
/// write, checkpoint window) that tests can arm with a deterministic
/// activation policy. When a site fires, the caller turns that into the
/// failure mode appropriate for the site: a clean Status::IOError, a torn
/// write (a prefix of the bytes reaches the file), or a simulated crash.
///
/// Crash semantics: a crash-mode failpoint *latches* the registry into a
/// crashed state. While latched, every evaluation at every site fires —
/// the process is "dead", so all subsequent I/O fails — until the torture
/// harness abandons the live store, calls Reset(), and re-opens from
/// disk. This guarantees that nothing can be appended after a torn tail,
/// which is what makes prefix-consistent recovery provable.
///
/// Every build compiles the sites in. A site costs one relaxed load of a
/// header-visible flag until a test arms something (see Active()), and
/// nothing outside tests/ may arm a site (tools/lint.py). Sites outside
/// src/storage, src/graphdb and src/net are also a lint finding:
/// failpoints belong at storage I/O and message-delivery boundaries, not
/// in partitioning or simulation logic.
namespace hermes {

/// Activation policy for an armed failpoint. All three are deterministic
/// given the config (probability draws come from a private seeded Rng).
struct FailpointConfig {
  enum class Policy : std::uint8_t {
    kNthHit,       // fire exactly once, on the n-th evaluation (1-based)
    kEveryK,       // fire on every k-th evaluation (n = k)
    kProbability,  // fire with probability `probability`, seeded by `seed`
  };
  Policy policy = Policy::kNthHit;
  std::uint64_t n = 1;
  double probability = 0.0;
  std::uint64_t seed = 0;
  // Site-specific argument, e.g. how many bytes of a frame a torn write
  // lets through before the simulated power loss. 0 = site default.
  std::uint64_t arg = 0;
};

/// Result of evaluating one site: whether it fires, and the armed `arg`.
struct FailpointHit {
  bool fired = false;
  std::uint64_t arg = 0;
};

/// Process-wide registry of failpoint sites. Sites self-register on
/// first evaluation, so while any site is armed, hit counts are
/// observable even for sites that were not. Evaluation also increments
/// `failpoint.<name>.hits` and (when fired) `failpoint.<name>.fired` in
/// the global MetricsRegistry; the Counter pointers are cached per site,
/// so the metrics mutex (rank kRankMetrics) is only taken on a site's
/// first evaluation — legal because mu_ holds the lower rank
/// kRankFailpoint.
///
/// Thread-safe. mu_ may be acquired while holding any storage-stack
/// mutex (DurableStore, WAL — both ranked below kRankFailpoint
/// in common/lock_order.h).
class FailpointRegistry {
 public:
  /// The process-wide registry every HERMES_FAILPOINT_* macro consults.
  static FailpointRegistry& Global();

  /// True while any site is armed or the crash latch is set. The site
  /// macros read this first and skip Evaluate() (no mu_, no map lookup,
  /// no hit counting) while it is false. Arm, Disarm, Reset and
  /// LatchCrash recompute it under mu_.
  static bool Active() {
    return active_.value.load(std::memory_order_relaxed);
  }

  /// Arms `name` with `config`, resetting the site's evaluation count so
  /// nth-hit policies count from the moment of arming.
  void Arm(const std::string& name, const FailpointConfig& config)
      EXCLUDES(mu_);

  /// Disarms `name`; its evaluations are counted only while some other
  /// site is armed.
  void Disarm(const std::string& name) EXCLUDES(mu_);

  /// Disarms every site, clears all counts, and releases the crash
  /// latch. The torture harness calls this before re-opening the store
  /// (the "new process" after a crash has no injected faults).
  void Reset() EXCLUDES(mu_);

  /// Evaluates the site: counts the hit and decides whether it fires.
  /// While the crash latch is set, every site fires unconditionally.
  FailpointHit Evaluate(const char* name) EXCLUDES(mu_);

  /// Sets the crash latch (see class comment).
  void LatchCrash(const char* name) EXCLUDES(mu_);
  bool crashed() const EXCLUDES(mu_);

  /// Test hook: lifetime fire count for one site.
  std::uint64_t FiredCount(const std::string& name) const EXCLUDES(mu_);

 private:
  FailpointRegistry() = default;

  struct Site {
    FailpointConfig config;
    bool armed = false;
    std::uint64_t evals = 0;  // since last Arm/Reset
    std::uint64_t fired = 0;
    Rng rng{0};
    Counter* hits_counter = nullptr;   // failpoint.<name>.hits
    Counter* fired_counter = nullptr;  // failpoint.<name>.fired
  };

  Site* GetSite(const std::string& name) REQUIRES(mu_);
  /// active_ = crashed_ || any site armed.
  void UpdateActive() REQUIRES(mu_);

  // Static so a disarmed site reads it without calling Global(); the
  // private constructor keeps Global() the only registry that writes it.
  // Alone on its cache line: sites on every thread read it, and a
  // written neighbour would turn each of those reads into a miss.
  struct alignas(64) ActiveFlag {
    std::atomic<bool> value;  // C++20: value-initialized to false
  };
  static inline ActiveFlag active_;
  mutable Mutex mu_{"failpoint_registry.mu", lock_order::kRankFailpoint};
  std::map<std::string, Site> sites_ GUARDED_BY(mu_);
  bool crashed_ GUARDED_BY(mu_) = false;
};

}  // namespace hermes

/// Site macros. Only src/storage, src/graphdb and src/net may use these
/// (tools/lint.py). Each site first reads Active(), one relaxed atomic
/// load, and goes into the registry only when it is true.
///
///   HERMES_FAILPOINT_HIT(name)          -> FailpointHit (inspect .fired)
///   HERMES_FAILPOINT_IOERROR(name)      -> return Status::IOError if fired
///   HERMES_FAILPOINT_CRASH(name)        -> latch crash + return IOError
///   HERMES_FAILPOINT_LATCH_CRASH(name)  -> latch crash (no return); used
///                                          only after a site fired
#define HERMES_FAILPOINT_HIT(name)                           \
  (::hermes::FailpointRegistry::Active()                     \
       ? ::hermes::FailpointRegistry::Global().Evaluate(name) \
       : ::hermes::FailpointHit{})

#define HERMES_FAILPOINT_LATCH_CRASH(name) \
  ::hermes::FailpointRegistry::Global().LatchCrash(name)

#define HERMES_FAILPOINT_IOERROR(name)                              \
  do {                                                              \
    if (HERMES_FAILPOINT_HIT(name).fired)                           \
      return ::hermes::Status::IOError(std::string("failpoint: ") + \
                                       (name));                     \
  } while (0)

#define HERMES_FAILPOINT_CRASH(name)                          \
  do {                                                        \
    if (HERMES_FAILPOINT_HIT(name).fired) {                   \
      ::hermes::FailpointRegistry::Global().LatchCrash(name); \
      return ::hermes::Status::IOError(                       \
          std::string("failpoint crash: ") + (name));         \
    }                                                         \
  } while (0)

#endif  // HERMES_COMMON_FAILPOINT_H_
