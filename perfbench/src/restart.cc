// restart: a ShardedStore of 2 hybrid shards holding 1M records, crashed
// and reopened round after round. Each round
//   * times Open up to the first Search returning (reopen_ms),
//   * verifies a seeded sample of acknowledged writes, plus every key of
//     the previous round's tail, and requires every shard to have
//     recovered from its checkpoint,
//   * runs a fixed burst of updates through ShardedStore::MultiExecute,
//   * calls Compact() and WriteCheckpoint() on every shard,
//   * writes a fixed tail of updates to distinct keys past the
//     checkpoint, then crashes (the store is destroyed without
//     CloseClean).
// PM emulation off. Three threads: the caller and two shard workers
// (recovery threads replace the workers while Open runs), plus a
// KvServer event loop in traced rounds, which also serve the verify
// frames over the wire (KvClient -> KvServer, UDS) to measure the net
// layer.
//
// A run is a fixed number of rounds for a given --seconds.
//
// Why: the paper's instant-recovery property on the only recovery path
// that does real work (checkpoint load plus tail replay), and the api
// layer's write path (scatter, shard queues, gather), whose hand-off
// costs far more than the table here. The tail is a fixed set of
// distinct keys, so recovery.replayed repeats exactly for a fixed seed.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>

#include "api/sharded_store.h"
#include "replay.h"
#include "util/rand.h"
#include "wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dash::api::Op;
using dash::api::OpType;
using dash::api::Status;

constexpr uint64_t kKeys = 1'000'000;
constexpr size_t kShards = 2;
constexpr size_t kBatch = 16;
constexpr size_t kVerifySample = 16384;
constexpr size_t kBurst = 65536;
constexpr size_t kTail = 16384;
// Traced rounds replay the last 1/kReplayShare of the burst through the
// api layer and the table, which writes those ops twice more.
constexpr size_t kReplayShare = 16;
constexpr int kSetups = 5;
// Rounds per second of --seconds. The round count is fixed for a given
// --seconds, not a time limit: the log grows round after round, so a
// time-bounded run would tie space_amp and reopen_ms to the host's speed.
constexpr int kRoundsPerSecond = 2;
// Low enough that every round's burst leaves a lane worth compacting.
constexpr double kCompactionTrigger = 0.02;

dash::api::ShardedStoreOptions StoreOptions(const RunConfig& config) {
  dash::api::ShardedStoreOptions o;
  o.kind = dash::api::IndexKind::kHybrid;
  o.shards = kShards;
  o.path_prefix = config.dir + "/restart";
  o.shard_pool_size = 1ull << 30;
  // reopen_ms times checkpoint load plus tail replay, not an O(n) walk of
  // every slot and log chain; the model checks the recovered state.
  o.verify_on_open = false;
  // Traced rounds serve frames through a KvServer: a full shard queue
  // must come back as retry-after, not block its event loop.
  o.async.submit_retries = 8;
  o.table.compaction_trigger = kCompactionTrigger;
  return o;
}

// The model of acknowledged writes: every write is synchronous, so after
// each batch the store holds exactly `version[key]` for every key.
struct Model {
  std::vector<uint32_t> version = std::vector<uint32_t>(kKeys + 1, 0);
  std::vector<uint64_t> tail;  // keys of the last tail, checked first
};

class Restart {
 public:
  Restart(const RunConfig& config, Report* report)
      : config_(config),
        report_(report),
        tracer_(config.trace),
        rng_(config.seed * 0x9E3779B97F4A7C15ull + 5) {}

  void Run();

 private:
  struct RoundResult {
    bool ok = false;
    double reopen_ms = 0, open_ms = 0, first_read_us = 0, shard_max_ms = 0;
    double mops = 0;
    uint64_t replayed = 0;
    size_t checkpoint_shards = 0;
    double compact_ms = 0, ckpt_ms = 0;
    double dead_ratio = 0;
    uint64_t bytes_rewritten = 0, chunks_reclaimed = 0;
    uint64_t log_chunk_bytes = 0;
    double space_amp = 0;
    double load_factor = 0, lf_spread = 0;
    OpCounts counts;
  };

  bool SetUp();
  // Runs `ops` through ShardedStore::MultiExecute in kBatch-op batches,
  // checks every status and read value, and records batch latencies.
  void Execute(const std::vector<Op>& ops, std::vector<double>* batch_us,
               uint64_t* elapsed_ns);
  std::vector<Op> Updates(size_t count, bool distinct);
  // Traced rounds only: serves the verify frames over the wire, then
  // replays them through the api layer and the table alone.
  void TraceReads(const std::vector<Op>& verify);
  // Compact() + WriteCheckpoint() on every shard, then the tail.
  bool CheckpointAndTail(RoundResult* r, uint64_t* elapsed_ns);
  RoundResult Round(int index, bool traced);

  const RunConfig& config_;
  Report* report_;
  Tracer tracer_;
  Tracer untraced_{false};
  dash::util::Xoshiro256 rng_;
  Model model_;
  std::unique_ptr<dash::api::ShardedStore> store_;
  std::vector<double> read_us_, write_us_;
  ReplayResult replay_;        // burst frames: api and dash layers
  ReplayResult replay_reads_;  // verify frames: the api side of the wire
  std::vector<double> wire_frame_us_, wire_send_us_;
  dash::net::ServerStats wire_stats_;
  uint64_t next_request_ = 0;
};

bool Restart::SetUp() {
  store_ = dash::api::ShardedStore::Open(StoreOptions(config_));
  if (store_ == nullptr) {
    report_->Fail("restart: store open failed");
    return false;
  }
  std::fill(model_.version.begin(), model_.version.end(), 0);
  if (!Preload(store_.get(), kKeys, report_)) return false;
  RoundResult r;
  uint64_t elapsed = 0;
  return CheckpointAndTail(&r, &elapsed);
}

void Restart::Execute(const std::vector<Op>& ops, std::vector<double>* batch_us,
                      uint64_t* elapsed_ns) {
  Op batch[kBatch];
  Status st[kBatch];
  for (size_t at = 0; at < ops.size(); at += kBatch) {
    const size_t n = std::min(kBatch, ops.size() - at);
    std::copy(ops.begin() + at, ops.begin() + at + n, batch);
    const uint64_t t0 = NowNs();
    store_->MultiExecute(batch, n, st);
    const uint64_t t1 = NowNs();
    *elapsed_ns += t1 - t0;
    batch_us->push_back(static_cast<double>(t1 - t0) / 1e3);
    report_->attempted += n;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = batch[i].key;
      const bool read_ok =
          batch[i].type != OpType::kSearch ||
          batch[i].value == EncodeValue(key, model_.version[key]);
      if (st[i] != Status::kOk || !read_ok) ++report_->failed;
    }
  }
}

std::vector<Op> Restart::Updates(size_t count, bool distinct) {
  std::vector<Op> ops(count);
  uint64_t start = rng_.NextBounded(kKeys);
  uint64_t step = 1;
  if (distinct) {
    // A stride coprime with kKeys visits distinct keys.
    do {
      step = rng_.NextBounded(kKeys - 1) + 1;
    } while (std::gcd(step, kKeys) != 1);
  }
  for (size_t i = 0; i < count; ++i) {
    const uint64_t key = distinct ? (start + i * step) % kKeys + 1
                                  : rng_.NextBounded(kKeys) + 1;
    ops[i] = Op::Update(key, EncodeValue(key, ++model_.version[key]));
  }
  return ops;
}

bool Restart::CheckpointAndTail(RoundResult* r, uint64_t* elapsed_ns) {
  for (size_t s = 0; s < kShards; ++s) {
    r->dead_ratio = std::max(
        r->dead_ratio, store_->shard(s)->Stats().compaction_dead_ratio);
  }
  for (size_t s = 0; s < kShards; ++s) {
    const uint64_t t0 = NowNs();
    store_->shard(s)->Compact();
    const uint64_t t1 = NowNs();
    const bool written = store_->shard(s)->WriteCheckpoint();
    const uint64_t t2 = NowNs();
    r->compact_ms += static_cast<double>(t1 - t0) / 1e6;
    r->ckpt_ms += static_cast<double>(t2 - t1) / 1e6;
    if (!written) {
      report_->Fail("restart: shard %zu checkpoint not written", s);
      return false;
    }
  }
  const std::vector<Op> tail = Updates(kTail, /*distinct=*/true);
  Execute(tail, &write_us_, elapsed_ns);
  model_.tail.clear();
  for (const Op& op : tail) model_.tail.push_back(op.key);
  return true;
}

void Restart::TraceReads(const std::vector<Op>& verify) {
  std::vector<std::vector<Op>> frames;
  for (size_t at = 0; at < verify.size(); at += kBatch) {
    frames.emplace_back(verify.begin() + at,
                        verify.begin() + std::min(at + kBatch, verify.size()));
  }
  const ReplayCheck check = [&](size_t, const Op* ops, const Status* st,
                                size_t n) {
    report_->attempted += n;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = ops[i].key;
      if (st[i] != Status::kOk ||
          ops[i].value != EncodeValue(key, model_.version[key])) {
        ++report_->failed;
      }
    }
  };
  const WireResult wire =
      ServeFrames(store_.get(), config_.dir + "/wire.sock", frames, tracer_,
                  next_request_, check, report_);
  next_request_ += frames.size();
  wire_frame_us_.insert(wire_frame_us_.end(), wire.frame_us.begin(),
                        wire.frame_us.end());
  wire_send_us_.insert(wire_send_us_.end(), wire.send_us.begin(),
                       wire.send_us.end());
  wire_stats_.retry_responses += wire.server.retry_responses;
  wire_stats_.pipeline_rejects += wire.server.pipeline_rejects;
  wire_stats_.frames_bad += wire.server.frames_bad;
  ReplayFrames(store_.get(), frames, tracer_, next_request_, check,
               &replay_reads_);
  next_request_ += frames.size();
}

Restart::RoundResult Restart::Round(int index, bool traced) {
  Tracer& tracer = traced ? tracer_ : untraced_;
  RoundResult r;
  const ScopedSpan round(tracer, "restart.round", index);

  const uint32_t open_span = tracer.Open("recovery.open", index, round.id());
  const uint64_t t0 = NowNs();
  store_ = dash::api::ShardedStore::Open(StoreOptions(config_));
  const uint64_t t1 = NowNs();
  tracer.Close(open_span);
  if (store_ == nullptr || store_->QuarantinedCount() != 0) {
    report_->Fail("restart: reopen %d failed", index);
    return r;
  }
  const uint64_t probe = model_.tail.front();
  uint64_t value = 0;
  const uint32_t read_span =
      tracer.Open("recovery.first_read", index, round.id());
  const Status st = store_->Search(probe, &value);
  const uint64_t t2 = NowNs();
  tracer.Close(read_span);
  ++report_->attempted;
  if (st != Status::kOk || value != EncodeValue(probe, model_.version[probe])) {
    ++report_->failed;
    report_->Fail("restart: key %llu wrong after reopen",
                  static_cast<unsigned long long>(probe));
  }
  r.reopen_ms = static_cast<double>(t2 - t0) / 1e6;
  r.open_ms = static_cast<double>(t1 - t0) / 1e6;
  r.first_read_us = static_cast<double>(t2 - t1) / 1e3;
  const dash::api::RecoveryReport& rec = store_->recovery_report();
  r.shard_max_ms = *std::max_element(rec.shard_ms.begin(), rec.shard_ms.end());
  r.checkpoint_shards = static_cast<size_t>(
      std::count(rec.shard_source.begin(), rec.shard_source.end(),
                 std::string("checkpoint")));
  r.replayed = std::accumulate(rec.shard_replayed.begin(),
                               rec.shard_replayed.end(), uint64_t{0});
  if (r.checkpoint_shards != kShards) {
    report_->Fail("restart: %zu of %zu shards recovered from a checkpoint",
                  r.checkpoint_shards, kShards);
  }

  uint64_t op_ns = 0;
  size_t ops = 0;
  ResetOpCounts();
  std::vector<Op> verify;
  for (uint64_t key : model_.tail) verify.push_back(Op::Search(key));
  for (size_t i = 0; i < kVerifySample; ++i) {
    verify.push_back(Op::Search(rng_.NextBounded(kKeys) + 1));
  }
  {
    const ScopedSpan span(tracer, "restart.verify", index, round.id());
    Execute(verify, &read_us_, &op_ns);
  }
  ops += verify.size();
  if (traced) TraceReads(verify);

  const std::vector<Op> burst = Updates(kBurst, /*distinct=*/false);
  {
    const ScopedSpan span(tracer, "restart.burst", index, round.id());
    Execute(burst, &write_us_, &op_ns);
  }
  ops += burst.size();
  if (traced) {
    // Replay the burst's last frames through the api layer and the table
    // alone. Each key's last write in the burst is among them, so
    // re-writing their values in order leaves the model intact. A subset
    // keeps the traced round's extra log appends to 2/kReplayShare of the
    // burst.
    std::vector<std::vector<Op>> frames;
    for (size_t at = burst.size() - burst.size() / kReplayShare;
         at < burst.size(); at += kBatch) {
      frames.emplace_back(burst.begin() + at, burst.begin() + at + kBatch);
    }
    ReplayFrames(
        store_.get(), frames, tracer, next_request_,
        [&](size_t, const Op*, const Status* st, size_t n) {
          report_->attempted += n;
          report_->failed += static_cast<uint64_t>(std::count_if(
              st, st + n, [](Status s) { return s != Status::kOk; }));
        },
        &replay_);
    next_request_ += frames.size();
  }

  {
    const ScopedSpan span(tracer, "restart.checkpoint_and_tail", index,
                          round.id());
    if (!CheckpointAndTail(&r, &op_ns)) return r;
  }
  ops += kTail;
  r.counts = TakeOpCounts(ops);
  r.mops = static_cast<double>(ops) / static_cast<double>(op_ns) * 1e3;

  uint64_t records = 0, capacity = 0;
  double min_lf = 1, max_lf = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const dash::api::IndexStats stats = store_->shard(s)->Stats();
    records += stats.records;
    capacity += stats.capacity_slots;
    min_lf = std::min(min_lf, stats.load_factor);
    max_lf = std::max(max_lf, stats.load_factor);
    r.log_chunk_bytes += stats.log_chunk_bytes;
    r.bytes_rewritten += stats.compaction_bytes_rewritten;
    r.chunks_reclaimed += stats.compaction_chunks_reclaimed;
  }
  if (records != kKeys) {
    report_->Fail("restart: %llu records, expected %llu",
                  static_cast<unsigned long long>(records),
                  static_cast<unsigned long long>(kKeys));
    return r;
  }
  r.space_amp = static_cast<double>(r.log_chunk_bytes) /
                (16.0 * static_cast<double>(records));
  r.load_factor = static_cast<double>(records) / static_cast<double>(capacity);
  r.lf_spread = max_lf - min_lf;
  {
    const ScopedSpan span(tracer, "restart.crash", index, round.id());
    store_.reset();  // no CloseClean: a crash with a checkpoint on disk
  }
  r.ok = true;
  return r;
}

void Restart::Run() {
  std::vector<double> setup_s;
  for (int i = 0; i < (config_.trace ? 1 : kSetups); ++i) {
    if (store_ != nullptr) {
      store_->CloseClean();
      store_.reset();
      ClearDir(config_.dir);
    }
    const uint64_t t0 = NowNs();
    if (!SetUp()) return;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  store_.reset();  // the set-up ends in a crash, like every round
  read_us_.clear();
  write_us_.clear();
  ReportSetup(setup_s, report_);

  // A traced run alternates untraced and traced rounds to measure its
  // overhead.
  StealProbe steal;
  steal.Start();
  std::vector<RoundResult> rounds, traced_rounds;
  for (int i = 0; i < config_.seconds * kRoundsPerSecond; ++i) {
    const bool traced = config_.trace && i % 2 == 1;
    const RoundResult r = Round(i, traced);
    if (!r.ok) return;
    (traced ? traced_rounds : rounds).push_back(r);
  }
  RecordHost(steal, report_);

  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const RoundResult& r : rounds) {
      v.push_back(static_cast<double>(r.*field));
    }
    return Median(v);
  };
  report_->Set("mops", median_of(&RoundResult::mops), "Mops");
  report_->Set("reopen_ms", median_of(&RoundResult::reopen_ms), "ms");
  report_->Set("space_amp", median_of(&RoundResult::space_amp), "ratio");
  report_->Set("read_p50_us", Percentile(read_us_, 0.5), "us");
  report_->Set("write_p50_us", Percentile(write_us_, 0.5), "us");
  report_->Set("restart.rounds", rounds.size(), "count");
  report_->Set("recovery.open_ms", median_of(&RoundResult::open_ms), "ms");
  report_->Set("recovery.shard_max_ms", median_of(&RoundResult::shard_max_ms),
               "ms");
  report_->Set("recovery.first_read_us",
               median_of(&RoundResult::first_read_us), "us");
  report_->Set("hybrid.compact_ms", median_of(&RoundResult::compact_ms), "ms");
  report_->Set("hybrid.ckpt_write_ms", median_of(&RoundResult::ckpt_ms), "ms");
  report_->Set("hybrid.dead_ratio", median_of(&RoundResult::dead_ratio),
               "ratio");
  report_->Set("hybrid.compaction_bytes_rewritten",
               median_of(&RoundResult::bytes_rewritten), "bytes");
  report_->Set("hybrid.chunks_reclaimed",
               median_of(&RoundResult::chunks_reclaimed), "count");
  report_->Set("hybrid.log_chunk_bytes",
               median_of(&RoundResult::log_chunk_bytes), "bytes");
  report_->Set("pmem.bytes_per_record", median_of(&RoundResult::space_amp) * 16,
               "bytes");
  report_->Set("dash.load_factor", median_of(&RoundResult::load_factor),
               "ratio");
  report_->Set("api.shard_lf_spread", median_of(&RoundResult::lf_spread),
               "ratio");
  // The tail past each checkpoint is kTail writes to distinct keys, so
  // every reopen, traced or not, replays exactly kTail records.
  for (const auto* list : {&rounds, &traced_rounds}) {
    for (const RoundResult& r : *list) {
      if (r.replayed != kTail) {
        report_->Fail("restart: a reopen replayed %llu records, not %zu",
                      static_cast<unsigned long long>(r.replayed), kTail);
      }
    }
  }
  report_->Set("recovery.replayed", rounds.front().replayed, "count");
  ReportOpCounts(rounds.front().counts, report_);
  report_->Set("recovery.checkpoint_shards",
               static_cast<double>(rounds.front().checkpoint_shards), "count");

  if (config_.trace) {
    std::vector<double> traced_mops;
    for (const RoundResult& r : traced_rounds) traced_mops.push_back(r.mops);
    const double untraced_mops = median_of(&RoundResult::mops);
    report_->Set("trace.overhead_pct",
                 (untraced_mops / Median(traced_mops) - 1) * 100, "%");
    ReportReplay(replay_, report_);
    report_->Set("dash.search_ns_per_op",
                 replay_reads_.NsPerOp(OpType::kSearch), "ns");
    report_->Set("net.wire_p50_us",
                 Median(wire_frame_us_) - Median(replay_reads_.complete_us),
                 "us");
    report_->Set("net.send_us", Median(wire_send_us_), "us");
    report_->Set("net.codec_ns", CodecNs(), "ns");
    report_->Set("net.retry_responses", wire_stats_.retry_responses, "count");
    report_->Set("net.pipeline_rejects", wire_stats_.pipeline_rejects,
                 "count");
    report_->Set("net.bad_frames", wire_stats_.frames_bad, "count");
    report_->Set("serve.read_p50_us", Median(wire_frame_us_), "us");
    report_->Set("serve.read_p99_us", Percentile(wire_frame_us_, 0.99),
                 "us");
    WriteTrace(config_, tracer_, report_);
  }
  ClearDir(config_.dir);
}

}  // namespace

void RunRestart(const RunConfig& config, Report* report) {
  Restart(config, report).Run();
}

}  // namespace perfbench
