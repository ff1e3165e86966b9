// Per-thread append-only PM value log for the hybrid DRAM-PM tier.
//
// The hybrid index (hybrid_table.h) keeps its entire hash structure —
// directory, segments, fingerprint buckets, stash — in ordinary DRAM and
// stores only the KV payload on PM, following the Halo/HESH hybrid idiom:
// every DRAM slot holds an 8-byte PmOffset handle into this log instead of
// the value itself. The log is therefore the *only* persistent state of
// the index; recovery rebuilds the DRAM structure by scanning it.
//
// Layout. The log is a set of `lanes` (appenders pick a lane by dense
// thread id, so concurrent writers rarely share a lane lock). Each lane is
// a persistent chain of fixed-size chunks hanging off the table root
// (lane_heads[]); a chunk is a 64-byte header plus an array of 32-byte
// records:
//
//   LogRecord { key, value, meta, pad }     meta = (seq << 1) | tombstone
//
// `meta` is the atomic commit word: 0 means the slot is free (or an append
// tore before publication), any non-zero value carries a global sequence
// number that totally orders committed records for the same key across
// lanes. An append writes key+value, persists them, then publishes meta
// with a single 8-byte atomic persist — the same publication discipline as
// CcehSlot. Updates and deletes append a new record (a tombstone for
// deletes) with a higher seq; rebuild keeps the highest-seq record per key
// and a winning tombstone makes the key absent.
//
// Reclamation. Superseded records are zeroed (meta -> 0, crash-atomic) and
// their slots pushed onto a volatile per-lane free list for reuse — but
// only after an epoch grace period, because an optimistic reader may still
// dereference the old handle (the table retires {old, tombstone} pairs via
// the shared EpochManager). Zeroing order matters for delete pairs: the
// superseded record is zeroed strictly before its tombstone, so a crash
// between the two never resurrects the key.
//
// Preallocation. Appends draw slots from the lane free list; the list is
// refilled by linking a fresh chunk when it crosses a low-water mark, so
// the allocator runs once per `records_per_chunk` appends and the common
// append never touches it (the Halo "preallocated allocator" discipline,
// amortized rather than threaded). Chunks are reserved zeroed and
// activated directly into the lane chain (allocator reserve/activate
// protocol), so they are crash-reachable from the moment they hold data
// and never leak.
//
// Compaction. Long-lived update churn strands zeroed slots across old
// chunks, so chains grow even when the live set does not. The table runs
// an online per-lane compaction pass (HybridTable::Compact): it claims the
// oldest chunk of a lane as the *retiring* victim, purges the victim's
// slots from the free list (after which no new append can land there),
// relocates every still-live record to a fresh slot with a new seq, and —
// once every record in the victim is zeroed — unlinks the chunk from the
// chain and returns it to the allocator. The unlink and the persistent
// retire-buffer entry commit in one MiniTx, so a crash at any instant
// leaves the chunk either still linked (its records all free — rebuild
// skips them) or owned by the retire buffer (pool open recovery frees it);
// it is never leaked and never doubly owned.
//
// A stale handle remains safe to dereference even though chunks are now
// freed: a record is only zeroed after an epoch grace period (no reader
// can still hold its handle), the free-list purge means the handle is
// never reissued, and a chunk is only unlinked once *all* of its records
// are zeroed — so by the time a chunk's memory returns to the allocator,
// no optimistic reader can reach it. Readers that lose the race to a
// relocation revalidate and retry exactly as for updates: the handle they
// chased was old-committed or freed, never torn.

#ifndef DASH_PM_HYBRID_PM_LOG_H_
#define DASH_PM_HYBRID_PM_LOG_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "pmem/allocator.h"
#include "pmem/crash_point.h"
#include "pmem/mini_tx.h"
#include "pmem/persist.h"
#include "pmem/pool.h"
#include "util/lock.h"
#include "util/thread_id.h"

namespace dash::hybrid {

// Upper bound on log lanes (root-area array size). The actual lane count
// is a creation-time option (power of two <= kMaxLanes).
inline constexpr uint32_t kMaxLanes = 32;

// PmOffset handle format: [lane:6 | pool byte offset:58]. Lane bits let
// the reclaim path route a freed slot back to its owning lane without a
// reverse map; 58 offset bits cover any pool this emulation can map.
inline constexpr uint32_t kLaneShift = 58;
inline constexpr uint64_t kOffsetMask = (1ull << kLaneShift) - 1;

inline uint64_t EncodeHandle(uint32_t lane, uint64_t pool_off) {
  return (static_cast<uint64_t>(lane) << kLaneShift) | pool_off;
}
inline uint32_t HandleLane(uint64_t handle) {
  return static_cast<uint32_t>(handle >> kLaneShift);
}
inline uint64_t HandleOffset(uint64_t handle) { return handle & kOffsetMask; }

// One PM-resident value record. Fields that race optimistic readers are
// accessed through 8-byte atomics (the snapshot/revalidate protocol
// discards stale *logical* states; atomics keep the loads untorn and
// TSan-clean).
struct LogRecord {
  uint64_t key;    // stored key word (inline key or VarKey*); record-owned
  uint64_t value;
  uint64_t meta;   // (seq << 1) | tombstone; 0 = free / unpublished
  uint64_t pad;

  uint64_t LoadKeyAcquire() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&key)->load(
        std::memory_order_acquire);
  }
  uint64_t LoadValueAcquire() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&value)->load(
        std::memory_order_acquire);
  }
  uint64_t LoadMetaAcquire() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&meta)->load(
        std::memory_order_acquire);
  }
  void StoreKeyRelaxed(uint64_t k) {
    reinterpret_cast<std::atomic<uint64_t>*>(&key)->store(
        k, std::memory_order_relaxed);
  }
  void StoreValueRelaxed(uint64_t v) {
    reinterpret_cast<std::atomic<uint64_t>*>(&value)->store(
        v, std::memory_order_relaxed);
  }
  uint64_t* meta_word() { return &meta; }

  static bool IsTombstone(uint64_t meta_word) { return (meta_word & 1) != 0; }
  static uint64_t Seq(uint64_t meta_word) { return meta_word >> 1; }
};
static_assert(sizeof(LogRecord) == 32);

// Chunk header (one cacheline), followed by `num_records` LogRecords.
struct LogChunk {
  // Pointer to the next chunk in the lane (0 = tail), as published by
  // PmAllocator::Activate. Raw pointers are stable across reopens: the
  // pool remaps at the base address recorded in its header, the same
  // idiom as the Dash tables' persisted segment pointers.
  uint64_t next;
  uint32_t num_records;
  uint32_t pad32;
  uint8_t pad[48];

  LogRecord* record(uint32_t i) {
    return reinterpret_cast<LogRecord*>(this + 1) + i;
  }
  const LogRecord* record(uint32_t i) const {
    return reinterpret_cast<const LogRecord*>(this + 1) + i;
  }
  static size_t AllocSize(uint32_t n) {
    return sizeof(LogChunk) + static_cast<size_t>(n) * sizeof(LogRecord);
  }
};
static_assert(sizeof(LogChunk) == 64);

struct LogStats {
  uint64_t chunks = 0;
  uint64_t free_slots = 0;
  uint64_t chunk_bytes = 0;
  // Compaction telemetry: free slots known to be reclaimed garbage (vs.
  // never-used tail slack), the worst per-lane dead ratio, and cumulative
  // compaction work since open.
  uint64_t dead_slots = 0;
  double max_dead_ratio = 0.0;
  uint64_t compactions = 0;        // lane-rewrite rounds begun
  uint64_t chunks_reclaimed = 0;   // drained chunks returned to allocator
  uint64_t bytes_rewritten = 0;    // live-record bytes copied by compaction
};

// Volatile front-end over the persistent lane chains. One instance per
// open hybrid table; `lane_heads` points into the table's root area.
class HybridLog {
 public:
  HybridLog(pmem::PmPool* pool, uint64_t* lane_heads, uint32_t lanes,
            uint32_t records_per_chunk)
      : pool_(pool),
        alloc_(&pool->allocator()),
        lane_heads_(lane_heads),
        lane_mask_(lanes - 1),
        records_per_chunk_(records_per_chunk),
        low_water_(records_per_chunk / 4 < 64 ? records_per_chunk / 4 : 64),
        lanes_(lanes) {}

  HybridLog(const HybridLog&) = delete;
  HybridLog& operator=(const HybridLog&) = delete;

  // Appends a committed record and returns its encoded handle, or 0 when
  // the pool is out of memory. `stored_key` ownership transfers to the
  // record (FreeStored happens when the record is zeroed).
  uint64_t Append(uint64_t stored_key, uint64_t value, bool tombstone) {
    const uint32_t li = util::ThreadId() & lane_mask_;
    Lane& lane = lanes_state_[li];
    uint64_t handle = 0;
    {
      util::SpinLockGuard g(lane.lock);
      // Low-water refill: link the next chunk while slots remain, so the
      // allocator never sits on the append critical path. Exactly-at-mark
      // (not <=) keeps a failed reserve from being retried every append.
      if (lane.free.size() == low_water_ || lane.free.empty()) {
        Refill(li, lane);
      }
      if (lane.free.empty()) return 0;
      handle = PopFree(lane);
      lane.inflight.fetch_add(1, std::memory_order_relaxed);
    }
    LogRecord* rec = Record(handle);
    rec->StoreKeyRelaxed(stored_key);
    rec->StoreValueRelaxed(value);
    pmem::Persist(rec, 2 * sizeof(uint64_t));
    CRASH_POINT("hybrid_append_after_data");
    const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    pmem::AtomicPersist64(rec->meta_word(),
                          (seq << 1) | (tombstone ? 1ull : 0ull));
    // Volatile per-lane high-water mark of committed seqs (CAS max:
    // threads hashing to the same lane publish outside the lane lock).
    // Checkpoints snapshot these as the bounded-staleness frontier.
    uint64_t wm = lane_watermarks_[li].load(std::memory_order_relaxed);
    while (wm < seq && !lane_watermarks_[li].compare_exchange_weak(
                           wm, seq, std::memory_order_release,
                           std::memory_order_relaxed)) {
    }
    // Release pairs with FinishCompactChunk's acquire: once it observes
    // inflight == 0, every published meta store is visible.
    lane.inflight.fetch_sub(1, std::memory_order_release);
    CRASH_POINT("hybrid_append_after_publish");
    return handle;
  }

  // Compaction copy-out: appends an already-committed record's payload to
  // a fresh slot of the *same* lane and returns the new handle (0 = out
  // of memory). Identical publication protocol to Append — the copy gets
  // a fresh seq above every snapshotted checkpoint watermark, which is
  // what keeps the trusted-bitmap replay correct when compaction rewrites
  // a record that sat below a lane watermark.
  uint64_t AppendCompacted(uint32_t li, uint64_t stored_key, uint64_t value) {
    Lane& lane = lanes_state_[li];
    uint64_t handle = 0;
    {
      util::SpinLockGuard g(lane.lock);
      if (lane.free.size() == low_water_ || lane.free.empty()) {
        Refill(li, lane);
      }
      if (lane.free.empty()) return 0;
      handle = PopFree(lane);
      lane.inflight.fetch_add(1, std::memory_order_relaxed);
    }
    CRASH_POINT("hybrid_compact_after_reserve");
    LogRecord* rec = Record(handle);
    rec->StoreKeyRelaxed(stored_key);
    rec->StoreValueRelaxed(value);
    pmem::Persist(rec, 2 * sizeof(uint64_t));
    CRASH_POINT("hybrid_compact_after_copy");
    const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    pmem::AtomicPersist64(rec->meta_word(), seq << 1);
    uint64_t wm = lane_watermarks_[li].load(std::memory_order_relaxed);
    while (wm < seq && !lane_watermarks_[li].compare_exchange_weak(
                           wm, seq, std::memory_order_release,
                           std::memory_order_relaxed)) {
    }
    lane.inflight.fetch_sub(1, std::memory_order_release);
    bytes_rewritten_.fetch_add(sizeof(LogRecord), std::memory_order_relaxed);
    return handle;
  }

  LogRecord* Record(uint64_t handle) const {
    return pool_->FromOffset<LogRecord>(HandleOffset(handle));
  }

  // Crash-atomically un-commits a record (rebuild then treats the slot as
  // free). The caller owns ordering constraints (a delete's superseded
  // record before its tombstone) and key-blob disposal.
  void ZeroRecord(uint64_t handle) {
    pmem::AtomicPersist64(Record(handle)->meta_word(), 0);
  }

  // Returns a zeroed slot to its lane free list. Only call after the
  // epoch grace period (no reader can still hold the handle). Slots that
  // land inside the lane's retiring chunk are *not* pushed back — they
  // evaporate with the chunk once compaction unlinks it. Every recycled
  // slot is tagged dead so the compaction trigger can tell reclaimed
  // garbage from never-used tail slack.
  void ReleaseSlot(uint64_t handle) {
    Lane& lane = lanes_state_[HandleLane(handle)];
    const uint64_t off = HandleOffset(handle);
    util::SpinLockGuard g(lane.lock);
    if (lane.retiring != nullptr && off >= lane.retiring_begin &&
        off < lane.retiring_end) {
      return;
    }
    lane.free.push_back(handle | kFreeDeadMark);
    ++lane.dead;
  }

  // Seeds a lane's dead-slot estimate without free-list entries — the
  // checkpoint-load path reports the untrusted slots it dropped per lane,
  // so a reopen starts with honest ratios instead of zeros. The estimate
  // is clamped to the free-list size wherever it is read, so an
  // over-seeded lane self-corrects as slots are reused.
  void SeedDead(uint32_t li, uint64_t n) {
    Lane& lane = lanes_state_[li];
    util::SpinLockGuard g(lane.lock);
    lane.dead += n;
  }

  // Fraction of a lane's slot capacity that is reclaimed garbage.
  double DeadRatio(uint32_t li) const {
    Lane& lane = lanes_state_[li];
    util::SpinLockGuard g(lane.lock);
    const uint64_t cap = lane.chunks * records_per_chunk_;
    if (cap == 0) return 0.0;
    const uint64_t dead =
        lane.dead < lane.free.size() ? lane.dead : lane.free.size();
    return static_cast<double>(dead) / static_cast<double>(cap);
  }

  // Trigger predicate: compaction needs at least two chunks (the tail is
  // the append frontier and is never the victim) and a dead ratio at or
  // above the configured trigger.
  bool ShouldCompact(uint32_t li, double trigger) const {
    if (trigger <= 0.0) return false;
    {
      util::SpinLockGuard g(lanes_state_[li].lock);
      if (lanes_state_[li].chunks < 2) return false;
    }
    return DeadRatio(li) >= trigger;
  }

  bool HasRetiring(uint32_t li) const {
    Lane& lane = lanes_state_[li];
    util::SpinLockGuard g(lane.lock);
    return lane.retiring != nullptr;
  }

  // The victim chunk's record range (pool offsets; 0/0 when none). Stable
  // while the caller holds the lane's compaction lock, so relocation
  // walks can test handles with plain arithmetic.
  void RetiringRange(uint32_t li, uint64_t* begin, uint64_t* end) const {
    Lane& lane = lanes_state_[li];
    util::SpinLockGuard g(lane.lock);
    *begin = lane.retiring_begin;
    *end = lane.retiring_end;
  }

  // Single-compactor gate per lane: Begin/ForEachRetiring/Finish assume
  // one driver, so concurrent Compact() callers skip a busy lane.
  bool TryLockCompaction(uint32_t li) {
    return !lanes_state_[li].compact_busy.exchange(true,
                                                   std::memory_order_acquire);
  }
  void UnlockCompaction(uint32_t li) {
    lanes_state_[li].compact_busy.store(false, std::memory_order_release);
  }

  // Claims the lane's oldest chunk as the retiring victim (idempotent —
  // returns true while a victim is in flight). Purging the victim's slots
  // from the free list is the step that makes draining monotone: no
  // future append can land in the chunk, so its live-record count only
  // falls. Returns false when the lane has no eligible victim.
  bool BeginCompactChunk(uint32_t li) {
    Lane& lane = lanes_state_[li];
    util::SpinLockGuard g(lane.lock);
    if (lane.retiring != nullptr) return true;
    auto* head = reinterpret_cast<LogChunk*>(LaneHead(li));
    if (head == nullptr || head == lane.tail) return false;
    const uint64_t begin = pool_->ToOffset(head) + sizeof(LogChunk);
    const uint64_t end =
        begin + static_cast<uint64_t>(head->num_records) * sizeof(LogRecord);
    size_t w = 0;
    for (size_t r = 0; r < lane.free.size(); ++r) {
      const uint64_t e = lane.free[r];
      const uint64_t off = HandleOffset(e & ~kFreeDeadMark);
      if (off >= begin && off < end) {
        if ((e & kFreeDeadMark) != 0 && lane.dead > 0) --lane.dead;
        continue;
      }
      lane.free[w++] = e;
    }
    lane.free.resize(w);
    lane.retiring = head;
    lane.retiring_begin = begin;
    lane.retiring_end = end;
    compactions_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Unlinks and frees the drained victim (compaction-lock holder only).
  // Returns false while records are still live or an append that popped
  // its slot before the purge is still publishing — retry on a later
  // pass. The unlink and the persistent retire entry commit in one
  // MiniTx; pool open recovery frees the block if we crash before
  // CompleteRetire, so the chunk is never leaked.
  bool FinishCompactChunk(uint32_t li) {
    Lane& lane = lanes_state_[li];
    LogChunk* victim = lane.retiring;
    if (victim == nullptr) return false;
    if (lane.inflight.load(std::memory_order_acquire) != 0) return false;
    for (uint32_t i = 0; i < victim->num_records; ++i) {
      if (victim->record(i)->LoadMetaAcquire() != 0) return false;
    }
    size_t slot;
    {
      util::SpinLockGuard g(lane.lock);
      pmem::MiniTx tx(pool_);
      slot = pool_->StageRetire(&tx, victim);
      if (slot >= pmem::RetireBuffer::kSlots) return false;  // buffer full
      // The victim is still the lane head: only compaction removes head
      // chunks and this lane's compaction is single-threaded.
      tx.Stage(&lane_heads_[li], victim->next);
      tx.Commit();
      lane.retiring = nullptr;
      lane.retiring_begin = lane.retiring_end = 0;
      --lane.chunks;
    }
    CRASH_POINT("hybrid_compact_after_retire");
    pool_->CompleteRetire(slot);
    chunks_reclaimed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Recovery scan of one lane (at open; lanes are disjoint, so distinct
  // lanes may be scanned by concurrent worker threads): resets the lane's
  // volatile state, walks its chain, rebuilds the free list from meta==0
  // slots, restores the lane watermark, and calls fn(record, handle,
  // meta) for every committed record. Returns the lane's max committed
  // seq; the caller merges and hands the global max to NoteScannedSeq.
  // PM read cost is accounted per record line.
  template <typename Fn>
  uint64_t ScanLane(uint32_t li, Fn fn) {
    Lane& lane = lanes_state_[li];
    lane.free.clear();
    lane.tail = nullptr;
    lane.dead = 0;
    lane.chunks = 0;
    lane.retiring = nullptr;
    lane.retiring_begin = lane.retiring_end = 0;
    lane.inflight.store(0, std::memory_order_relaxed);
    uint64_t max_seq = 0;
    for (auto* chunk = reinterpret_cast<LogChunk*>(LaneHead(li));
         chunk != nullptr;
         chunk = reinterpret_cast<LogChunk*>(chunk->next)) {
      pmem::ReadProbe(chunk,
                      LogChunk::AllocSize(chunk->num_records) / 64);
      lane.tail = chunk;
      ++lane.chunks;
      const uint64_t base = pool_->ToOffset(chunk) + sizeof(LogChunk);
      for (uint32_t i = 0; i < chunk->num_records; ++i) {
        LogRecord* rec = chunk->record(i);
        const uint64_t handle =
            EncodeHandle(li, base + static_cast<uint64_t>(i) *
                                        sizeof(LogRecord));
        const uint64_t meta = rec->meta;
        if (meta == 0) {
          lane.free.push_back(handle);
        } else {
          if (LogRecord::Seq(meta) > max_seq) max_seq = LogRecord::Seq(meta);
          fn(rec, handle, meta);
        }
      }
    }
    lane_watermarks_[li].store(max_seq, std::memory_order_release);
    return max_seq;
  }

  // Calls fn(lane, first_record_offset, num_records) for every chunk, in
  // scan order (lane by lane, along each chain). Quiescent use only
  // (open-time sweeps): it takes no lane lock, so fn may ReleaseSlot.
  template <typename Fn>
  void ForEachChunk(Fn fn) const {
    for (uint32_t li = 0; li <= lane_mask_; ++li) {
      for (auto* chunk = reinterpret_cast<const LogChunk*>(LaneHead(li));
           chunk != nullptr;
           chunk = reinterpret_cast<const LogChunk*>(chunk->next)) {
        fn(li, pool_->ToOffset(chunk) + sizeof(LogChunk), chunk->num_records);
      }
    }
  }

  // A lane's dead-slot estimate before the free-list clamp.
  uint64_t DeadSlots(uint32_t li) const {
    util::SpinLockGuard g(lanes_state_[li].lock);
    return lanes_state_[li].dead;
  }

  // Single-threaded whole-log scan (the serial recovery path).
  template <typename Fn>
  void Scan(Fn fn) {
    uint64_t max_seq = 0;
    for (uint32_t li = 0; li <= lane_mask_; ++li) {
      const uint64_t lane_max = ScanLane(li, fn);
      if (lane_max > max_seq) max_seq = lane_max;
    }
    NoteScannedSeq(max_seq);
  }

  // Restores the sequence counter after a scan (parallel scans call this
  // once with the merged per-lane max).
  void NoteScannedSeq(uint64_t max_seq) {
    if (max_seq >= next_seq_.load(std::memory_order_relaxed)) {
      next_seq_.store(max_seq + 1, std::memory_order_relaxed);
    }
  }

  // Checkpoint support: the per-lane committed-seq frontier. Taken
  // BEFORE the segment copies — with the globally monotone seq counter,
  // any record published after a copy has a seq above every snapshotted
  // watermark, so "replay everything past the watermarks" cannot lose a
  // record (over-replay of records already copied is idempotent).
  void SnapshotWatermarks(uint64_t out[kMaxLanes]) const {
    for (uint32_t li = 0; li < kMaxLanes; ++li) {
      out[li] = li < lanes_
                    ? lane_watermarks_[li].load(std::memory_order_acquire)
                    : 0;
    }
  }

  uint64_t NextSeqRelaxed() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  LogStats Stats() const {
    LogStats s;
    for (uint32_t li = 0; li <= lane_mask_; ++li) {
      Lane& lane = lanes_state_[li];
      util::SpinLockGuard g(lane.lock);
      s.chunks += lane.chunks;
      s.chunk_bytes += lane.chunks * LogChunk::AllocSize(records_per_chunk_);
      s.free_slots += lane.free.size();
      const uint64_t dead =
          lane.dead < lane.free.size() ? lane.dead : lane.free.size();
      s.dead_slots += dead;
      const uint64_t cap = lane.chunks * records_per_chunk_;
      if (cap != 0) {
        const double ratio =
            static_cast<double>(dead) / static_cast<double>(cap);
        if (ratio > s.max_dead_ratio) s.max_dead_ratio = ratio;
      }
    }
    s.compactions = compactions_.load(std::memory_order_relaxed);
    s.chunks_reclaimed = chunks_reclaimed_.load(std::memory_order_relaxed);
    s.bytes_rewritten = bytes_rewritten_.load(std::memory_order_relaxed);
    return s;
  }

  // Structural sanity of the persistent chains: every chunk lies inside
  // the pool and carries the configured record count. Takes each lane
  // lock for the walk so a concurrent compaction cannot unlink a chunk
  // under the iterator.
  bool VerifyChains() const {
    for (uint32_t li = 0; li <= lane_mask_; ++li) {
      util::SpinLockGuard g(lanes_state_[li].lock);
      uint64_t chunks = 0;
      for (const auto* chunk = reinterpret_cast<const LogChunk*>(LaneHead(li));
           chunk != nullptr;
           chunk = reinterpret_cast<const LogChunk*>(chunk->next)) {
        if (!pool_->Contains(chunk) ||
            !pool_->Contains(reinterpret_cast<const char*>(chunk) +
                             LogChunk::AllocSize(chunk->num_records) - 1)) {
          return false;
        }
        if (chunk->num_records != records_per_chunk_) return false;
        if (++chunks > (1ull << 32)) return false;  // cycle guard
      }
    }
    return true;
  }

  // True when `handle` decodes to a record inside a mapped chunk region.
  bool ContainsHandle(uint64_t handle) const {
    if (HandleLane(handle) > lane_mask_) return false;
    const uint64_t off = HandleOffset(handle);
    if (off == 0) return false;
    const void* p = pool_->FromOffset<void>(off);
    return pool_->Contains(p) &&
           pool_->Contains(static_cast<const char*>(p) + sizeof(LogRecord) - 1);
  }

  uint32_t lanes() const { return lanes_; }
  uint32_t records_per_chunk() const { return records_per_chunk_; }

 private:
  // Tag bit on free-list ENTRIES (never on handles handed out): marks a
  // slot recycled after holding a committed record, as opposed to
  // never-used chunk slack. Bit 57 sits atop the offset field — pools are
  // far smaller than 2^57 bytes, so it cannot collide with a real offset.
  static constexpr uint64_t kFreeDeadMark = 1ull << 57;

  struct Lane {
    util::SpinLock lock;
    std::vector<uint64_t> free;  // encoded handles (| kFreeDeadMark), LIFO
    LogChunk* tail = nullptr;
    // Dead-slot estimate (marked free entries + checkpoint-load seed) and
    // chunk count, both under `lock`.
    uint64_t dead = 0;
    uint64_t chunks = 0;
    // Compaction victim: the chunk being drained and its record range
    // (pool offsets). Non-null means appends skip these slots forever.
    LogChunk* retiring = nullptr;
    uint64_t retiring_begin = 0;
    uint64_t retiring_end = 0;
    // Appends between slot pop and meta publish; FinishCompactChunk
    // waits for zero so a pre-purge pop can't publish into a freed chunk.
    std::atomic<uint32_t> inflight{0};
    std::atomic<bool> compact_busy{false};
  };

  uint64_t LaneHead(uint32_t li) const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&lane_heads_[li])
        ->load(std::memory_order_acquire);
  }

  // Pops a free slot with lane.lock held, folding the dead tag back into
  // the accounting.
  static uint64_t PopFree(Lane& lane) {
    uint64_t handle = lane.free.back();
    lane.free.pop_back();
    if ((handle & kFreeDeadMark) != 0) {
      handle &= ~kFreeDeadMark;
      if (lane.dead > 0) --lane.dead;
    }
    return handle;
  }

  // Links one fresh chunk at the lane tail and refills the free list.
  // Called with lane.lock held; the reserve/activate protocol makes the
  // chunk crash-reachable (or reclaimed by allocator open recovery) at
  // every point.
  bool Refill(uint32_t li, Lane& lane) {
    auto r = alloc_->Reserve(LogChunk::AllocSize(records_per_chunk_));
    if (!r.valid()) return false;
    auto* chunk = static_cast<LogChunk*>(r.ptr);
    chunk->next = 0;
    chunk->num_records = records_per_chunk_;
    pmem::Persist(chunk, sizeof(LogChunk));
    CRASH_POINT("hybrid_chunk_after_reserve");
    uint64_t* dest = lane.tail != nullptr ? &lane.tail->next : &lane_heads_[li];
    alloc_->Activate(r, dest);
    CRASH_POINT("hybrid_chunk_after_activate");
    lane.tail = chunk;
    ++lane.chunks;
    const uint64_t base = pool_->ToOffset(chunk) + sizeof(LogChunk);
    // Reverse push: the LIFO then hands out slots in ascending order.
    for (uint32_t i = records_per_chunk_; i > 0; --i) {
      lane.free.push_back(EncodeHandle(
          li, base + static_cast<uint64_t>(i - 1) * sizeof(LogRecord)));
    }
    return true;
  }

  pmem::PmPool* pool_;
  pmem::PmAllocator* alloc_;
  uint64_t* lane_heads_;  // root-area array, kMaxLanes entries
  const uint32_t lane_mask_;
  const uint32_t records_per_chunk_;
  const uint32_t low_water_;
  const uint32_t lanes_;
  std::atomic<uint64_t> next_seq_{1};
  std::atomic<uint64_t> lane_watermarks_[kMaxLanes]{};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> chunks_reclaimed_{0};
  std::atomic<uint64_t> bytes_rewritten_{0};
  mutable Lane lanes_state_[kMaxLanes];  // mutable: Stats() takes lane locks
};

}  // namespace dash::hybrid

#endif  // DASH_PM_HYBRID_PM_LOG_H_
