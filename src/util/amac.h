// AMAC (Asynchronous Memory Access Chaining) engine behind every table's
// batched operations (Kocberber et al., PVLDB 2015).
//
// The engine keeps up to kBatchGroupWidth in-flight per-operation state
// machines: whenever one operation is about to dereference a cold
// cacheline it issues a software prefetch for that line, records its
// continuation, and yields, so the miss resolves while the other
// operations make progress. This covers execute-stage misses too — stash
// probes, Dash-LH's address-resolution walk, Level hashing's bottom-level
// reprobe, SMO-triggered re-reads — not only the directory and bucket
// lines every op touches.
//
// Scheduling. The machines' states are monotonic (an op never moves to an
// earlier state, except via the explicit kRetry restart), so a fair
// round-robin over them unrolls into *state passes*: pass k visits, in
// submission order, exactly the ops still suspended at state k — one ring
// lap per state, with completed ops dropping out. The tables implement
// the passes directly (plain loops plus an AmacReadyList of suspended
// continuations) rather than through a generic per-step dispatcher:
// measured on the fixed-schedule common path, per-step dispatch costs
// ~5 % of the whole operation. The shared pieces here are the state
// vocabulary, the ready-list, the suspend/resume telemetry surfaced by
// bench_batch, and the group driver at the bottom.
//
// Scheduling constraint: a state machine must never yield while holding a
// lock another operation in the same group could need — the scheduler is
// single-threaded, so the holder would never resume and the waiter would
// spin forever. All suspend points therefore sit at lock-free program
// points; lock-protected regions (write ops, pessimistic probes) run to
// completion within a single pass visit. Every table's *search* path is
// lock-free end to end (versioned snapshot/revalidate), so all of them
// suspend at the execute-stage probe; ops whose revalidation fails
// against a concurrent SMO re-arm their prefetches and resume in the
// kRetry state instead of stalling cold.

#ifndef DASH_PM_UTIL_AMAC_H_
#define DASH_PM_UTIL_AMAC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "util/prefetch.h"

namespace dash::util {

// Canonical stage names for the per-op state machines. Tables reuse the
// subset that applies to their layout (Level hashing has no directory;
// CCEH's bounded-window probe covers kBucketProbe and kExecute in one
// optimistic step).
enum class AmacState : uint8_t {
  kHash = 0,        // key hashed, directory/candidate lines prefetched
  kDirProbe = 1,    // directory entry read, segment header prefetched
  kSegResolve = 2,  // header validated, probe cachelines prefetched
  kBucketProbe = 3, // bucket pair probed, stash plan prefetched
  kExecute = 4,     // execute-stage continuation (stash scan / locked body)
  kRetry = 5,       // restarted after kRetry (concurrent SMO / recovery)
};
inline constexpr size_t kAmacStateCount = 6;

inline const char* AmacStateName(AmacState s) {
  switch (s) {
    case AmacState::kHash: return "hash";
    case AmacState::kDirProbe: return "dir_probe";
    case AmacState::kSegResolve: return "seg_resolve";
    case AmacState::kBucketProbe: return "bucket_probe";
    case AmacState::kExecute: return "execute";
    case AmacState::kRetry: return "retry";
  }
  return "?";
}

// Per-thread suspend/resume counters. Tables bump the thread-local
// instance on the hot path (plain stores, no atomics); bench_batch drains
// the aggregate between phases. DrainAll() must only be called while no
// other thread is executing a batch (the benchmark joins its workers
// first) — the counters are deliberately unsynchronized.
struct AmacTelemetry {
  uint64_t suspends[kAmacStateCount] = {};  // yields leaving each state
  uint64_t steps = 0;                       // state-machine step invocations
  uint64_t ops = 0;                         // operations run through the engine
  uint64_t groups = 0;                      // groups scheduled

  void Suspend(AmacState s) { ++suspends[static_cast<size_t>(s)]; }

  uint64_t TotalSuspends() const {
    uint64_t t = 0;
    for (size_t i = 0; i < kAmacStateCount; ++i) t += suspends[i];
    return t;
  }

  // The calling thread's counters (registered on first use; the entry
  // outlives the thread so DrainAll can read it after a join).
  static AmacTelemetry& Local();
  // Sums and resets every registered thread's counters.
  static AmacTelemetry DrainAll();
};

// Stack-local accumulator flushed into the thread's AmacTelemetry once
// per group: the per-step increments stay on the stack (register-
// allocatable) instead of read-modify-writing a heap line inside the
// scheduler's hot loop.
struct AmacGroupCounters {
  uint64_t suspends[kAmacStateCount] = {};
  uint64_t steps = 0;

  void Suspend(AmacState s) { ++suspends[static_cast<size_t>(s)]; }

  void FlushTo(AmacTelemetry& t) const {
    for (size_t i = 0; i < kAmacStateCount; ++i) {
      t.suspends[i] += suspends[i];
    }
    t.steps += steps;
  }
};

// The set of operations suspended at one state: a state pass drains the
// previous state's list in submission order (one round-robin lap), and an
// op that suspends again is pushed onto the next state's list. Keeping
// submission order end to end is also what lets the write engine keep
// the batch API's same-type ordering guarantee.
struct AmacReadyList {
  size_t idx[kBatchGroupWidth];
  size_t count = 0;

  void Push(size_t i) { idx[count++] = i; }
};

// ---- group driver ----
//
// A batch runs as groups of kBatchGroupWidth ops, one epoch guard per
// group: the guard amortizes the seq-cst epoch pin over the group without
// stalling reclamation for the whole (unbounded) batch, and keeps every
// directory / segment / array pointer a pass resolved mapped until the
// group's last pass. `Epochs` is the table's epoch manager (anything with
// a nested RAII `Guard`).

// The group loop, as a range:
//
//   for (auto& g : AmacGroups(epochs, count)) { ...passes over g... }
//
// runs the passes once per group: ops [g.base, g.base + g.n), under that
// group's epoch guard, with g.ctr collecting the passes' steps and
// suspends, flushed into the thread's telemetry when the group ends.
// A range rather than a callback, so that a table's passes stay in its
// own function body, where the compiler sees them whole (measured: a
// group body behind a lambda call, or counters flushed from a destructor
// that every potentially throwing call must keep current, cost 7-8 % of
// a batch search). `tele` null runs the groups uncounted (the
// prefetch-only hint below).
template <typename Epochs>
class AmacGroups {
 public:
  struct Group {
    size_t base = 0;
    size_t n = 0;
    AmacGroupCounters ctr;
  };
  struct End {};

  class Iterator {
   public:
    // Forced inline, like begin(): an outlined call would let the
    // iterator's address escape, and the group's counters, base and n
    // would then be reloaded around every call the passes make.
    [[gnu::always_inline]] Iterator(Epochs& epochs, size_t count,
                                    AmacTelemetry* tele)
        : epochs_(epochs), count_(count), tele_(tele) {
      Open();
    }
    Group& operator*() { return group_; }
    [[gnu::always_inline]] Iterator& operator++() {
      if (tele_ != nullptr) group_.ctr.FlushTo(*tele_);
      group_.ctr = AmacGroupCounters{};
      guard_.reset();
      group_.base += kBatchGroupWidth;
      Open();
      return *this;
    }
    bool operator!=(End) const { return group_.base < count_; }

   private:
    [[gnu::always_inline]] void Open() {
      if (group_.base >= count_) return;
      group_.n = std::min(kBatchGroupWidth, count_ - group_.base);
      guard_.emplace(epochs_);
      if (tele_ != nullptr) {
        ++tele_->groups;
        tele_->ops += group_.n;
      }
    }

    Epochs& epochs_;
    const size_t count_;
    AmacTelemetry* const tele_;
    Group group_;
    std::optional<typename Epochs::Guard> guard_;
  };

  AmacGroups(Epochs& epochs, size_t count,
             AmacTelemetry* tele = &AmacTelemetry::Local())
      : epochs_(epochs), count_(count), tele_(tele) {}
  [[gnu::always_inline]] Iterator begin() const {
    return Iterator(epochs_, count_, tele_);
  }
  End end() const { return {}; }

 private:
  Epochs& epochs_;
  const size_t count_;
  AmacTelemetry* const tele_;
};

// The fixed-schedule write engine. A write body takes locks and may run
// an SMO, so it executes in one pass visit (see the scheduling constraint
// above). Its schedule is the table's resolve + prefetch stage over the
// whole group — stage(keys, n, hashes, ctr) hashes each key into
// hashes[] and puts the lines the body will touch in flight — and then
// op(index, key, hash) per op in index order, which also keeps the batch
// API's same-type ordering.
template <typename Epochs, typename Key, typename StageFn, typename OpFn>
inline void AmacWriteBatch(Epochs& epochs, const Key* keys, size_t count,
                           StageFn&& stage, OpFn&& op) {
  uint64_t hashes[kBatchGroupWidth];
  for (auto& g : AmacGroups(epochs, count)) {
    stage(keys + g.base, g.n, hashes, g.ctr);
    for (size_t i = 0; i < g.n; ++i) {
      ++g.ctr.steps;
      op(g.base + i, keys[g.base + i], hashes[i]);
    }
  }
}

// Runs only the stage over the batch: a pure cache-warming hint whose ops
// are neither executed nor counted by the engine telemetry.
template <typename Epochs, typename Key, typename StageFn>
inline void AmacPrefetchOnly(Epochs& epochs, const Key* keys, size_t count,
                             StageFn&& stage) {
  uint64_t hashes[kBatchGroupWidth];
  for (auto& g : AmacGroups(epochs, count, /*tele=*/nullptr)) {
    stage(keys + g.base, g.n, hashes, g.ctr);
  }
}

}  // namespace dash::util

#endif  // DASH_PM_UTIL_AMAC_H_
