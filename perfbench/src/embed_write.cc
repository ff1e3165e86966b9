// embed-write: one thread calls KvIndex::MultiExecute on a single dash-eh
// table. 16-op batches, half inserts of fresh keys and half uniform
// searches over every key inserted so far. The table grows from 1M to
// about 3M records (larger than the CPU cache), through segment splits
// and directory doubling. PM emulation: 300 ns per read probe, 100 ns
// per flushed line, held there against the spin's drift (HoldEmulation;
// pmem.spin_ns records what the spin delivers for an unadjusted 300 ns).
//
// Why: the paper's own cost model (PM reads, CLWBs and fences per op)
// dominates and the wire and the executor are bypassed, so changes in
// dash, util/amac and pmem show here and should leave restart flat.
//
// A run is rounds of set-up (a fresh table with 1M keys) plus one fixed,
// seeded stream, repeated until --seconds have passed. The stream is a
// fixed amount of work, not a time limit, so with one thread the PM and
// AMAC counts per op repeat exactly for a fixed seed: every round must
// reproduce the first round's counts.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "api/kv_index.h"
#include "epoch/epoch_manager.h"
#include "pmem/pool.h"
#include "pmem/stats.h"
#include "util/rand.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dash::api::Op;
using dash::api::Status;

constexpr uint64_t kPreload = 1'000'000;
// Each round inserts kStreamInserts fresh keys: 1M -> 3M records.
constexpr uint64_t kStreamInserts = 2'000'000;
constexpr size_t kBatch = 16;
constexpr int kMinRounds = 2;
// Crash/reopen rounds after every stream round, so the samples spread
// over the run.
constexpr int kReopensPerRound = 17;
constexpr size_t kChunks = 20;
constexpr uint32_t kReadNs = 300;
constexpr uint32_t kFlushNs = 100;

void SetEmulation(uint32_t read_ns, uint32_t flush_ns) {
  auto& emulation = dash::pmem::GetEmulationConfig();
  emulation.read_latency_ns.store(read_ns);
  emulation.flush_latency_ns.store(flush_ns);
}

// pmem::SpinNanos is calibrated once per process and then runs at the
// host's current speed: for a 300 ns setting it delivered 210-370 ns,
// differing between runs and between the chunks of one run. The spins
// are about three quarters of this workload's time, so the drift moved
// mops by up to a tenth between runs. Scaling the settings by the spin's
// current speed, before every chunk, keeps the delays at kReadNs and
// kFlushNs of wall time. Returns the factor applied.
double HoldEmulation() {
  constexpr int kCalls = 2000;  // 7 blocks: about 4 ms at 300 ns
  const double scale = kReadNs / MeasureSpinNs(kReadNs, kCalls);
  SetEmulation(static_cast<uint32_t>(kReadNs * scale + 0.5),
               static_cast<uint32_t>(kFlushNs * scale + 0.5));
  return scale;
}

struct Table {
  std::string path;
  std::unique_ptr<dash::pmem::PmPool> pool;
  std::unique_ptr<dash::epoch::EpochManager> epochs;
  std::unique_ptr<dash::api::KvIndex> index;

  bool Open(bool create) {
    if (create) {
      dash::pmem::PmPool::Options options;
      options.pool_size = 1ull << 30;
      pool = dash::pmem::PmPool::Create(path, options);
    } else {
      pool = dash::pmem::PmPool::Open(path);
    }
    if (pool == nullptr) return false;
    epochs = std::make_unique<dash::epoch::EpochManager>();
    index = dash::api::CreateKvIndex(dash::api::IndexKind::kDashEH,
                                     pool.get(), epochs.get(),
                                     dash::DashOptions{});
    return index != nullptr;
  }
  // Drops the handles without a clean-shutdown marker (a crash).
  void Crash() {
    index.reset();
    epochs.reset();
    pool.reset();
  }
  void Close() {
    if (index != nullptr) index->CloseClean();
    if (pool != nullptr) pool->CloseClean();
    Crash();
  }
};

bool SetUp(Table* t, Report* report) {
  SetEmulation(0, 0);
  std::remove(t->path.c_str());
  if (!t->Open(/*create=*/true)) {
    report->Fail("embed-write: cannot create %s", t->path.c_str());
    return false;
  }
  return Preload(t->index.get(), kPreload, report);
}

// Accumulated over the rounds of one kind (untraced or traced).
struct StreamResult {
  uint64_t ops = 0;
  double seconds = 0;
  std::vector<double> chunk_mops;
  std::vector<double> spin_scale;  // HoldEmulation's factor per chunk
  std::vector<double> read_us;   // per search batch
  std::vector<double> write_us;  // per insert batch
  double search_ns = 0, insert_ns = 0;
  uint64_t search_ops = 0, insert_ops = 0;

  double Mops() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds / 1e6 : 0;
  }
};

// Runs the seeded stream with emulation on; every search must return the
// value its key was inserted with. Returns the round's per-op counts.
OpCounts RunStream(const RunConfig& config, Table* t, Tracer& tracer,
                   StreamResult* out, Report* report) {
  constexpr uint64_t kPerChunk = kStreamInserts / kChunks;
  dash::util::Xoshiro256 rng(config.seed * 0x9E3779B97F4A7C15ull + 3);
  uint64_t present = kPreload;  // keys [1, present] are acknowledged
  Op ops[kBatch];
  Status st[kBatch];
  uint64_t request = 0;
  uint64_t round_ops = 0;

  out->spin_scale.push_back(HoldEmulation());
  ResetOpCounts();
  const uint64_t start = NowNs();
  uint64_t chunk_start = start;
  uint64_t chunk_ops = 0;
  while (present < kPreload + kStreamInserts) {
    const bool insert = (rng.Next() >> 63) != 0;
    for (size_t i = 0; i < kBatch; ++i) {
      if (insert) {
        const uint64_t key = present + 1 + i;
        ops[i] = Op::Insert(key, EncodeValue(key, 0));
      } else {
        ops[i] = Op::Search(rng.NextBounded(present) + 1);
      }
    }
    const ScopedSpan batch_span(tracer, "embed.batch", request);
    const uint32_t exec_span =
        tracer.Open("dash.exec", request, batch_span.id());
    const uint64_t t0 = NowNs();
    t->index->MultiExecute(ops, kBatch, st);
    const uint64_t t1 = NowNs();
    tracer.Close(exec_span);
    ++request;
    const double us = static_cast<double>(t1 - t0) / 1e3;
    for (size_t i = 0; i < kBatch; ++i) {
      if (st[i] != Status::kOk ||
          (!insert && ops[i].value != EncodeValue(ops[i].key, 0))) {
        ++report->failed;
      }
    }
    report->attempted += kBatch;
    round_ops += kBatch;
    chunk_ops += kBatch;
    if (insert) {
      present += kBatch;
      out->write_us.push_back(us);
      out->insert_ns += static_cast<double>(t1 - t0);
      out->insert_ops += kBatch;
      if ((present - kPreload) % kPerChunk == 0) {
        const uint64_t now = NowNs();
        out->chunk_mops.push_back(static_cast<double>(chunk_ops) /
                                  static_cast<double>(now - chunk_start) *
                                  1e3);
        out->spin_scale.push_back(HoldEmulation());
        chunk_start = NowNs();
        chunk_ops = 0;
      }
    } else {
      out->read_us.push_back(us);
      out->search_ns += static_cast<double>(t1 - t0);
      out->search_ops += kBatch;
    }
  }
  out->seconds += static_cast<double>(NowNs() - start) / 1e9;
  out->ops += round_ops;
  const OpCounts counts = TakeOpCounts(round_ops);
  std::fputs("perfbench: embed-write chunk Mops:", stderr);
  for (size_t i = out->chunk_mops.size() - kChunks; i < out->chunk_mops.size();
       ++i) {
    std::fprintf(stderr, " %.3f", out->chunk_mops[i]);
  }
  std::fputc('\n', stderr);
  const dash::api::IndexStats stats = t->index->Stats();
  if (stats.records != present) {
    report->Fail("embed-write: %llu records, expected %llu",
                 static_cast<unsigned long long>(stats.records),
                 static_cast<unsigned long long>(present));
  }
  const double bytes_per_record = static_cast<double>(stats.bytes_used) /
                                  static_cast<double>(stats.records);
  report->Set("space_amp", bytes_per_record / 16.0, "ratio");
  report->Set("pmem.bytes_per_record", bytes_per_record, "bytes");
  report->Set("dash.load_factor", stats.load_factor, "ratio");
  return counts;
}

struct ReopenSamples {
  std::vector<double> reopen_ms, open_ms, first_read_us;
};

// Crash-reopen rounds: drop the handles without a clean close, reopen
// the pool and the table, and time until the first Search returns.
void ReopenRounds(const RunConfig& config, Table* t, int stream_round,
                  Tracer& tracer, ReopenSamples* out, Report* report) {
  constexpr uint64_t kPresent = kPreload + kStreamInserts;
  dash::util::Xoshiro256 rng(config.seed ^ (0xC0FFEEull + stream_round));
  for (int i = 0; i < kReopensPerRound; ++i) {
    const int r = stream_round * kReopensPerRound + i;
    t->Crash();
    const ScopedSpan round(tracer, "reopen.round", r);
    const uint32_t open_span = tracer.Open("recovery.open", r, round.id());
    const uint64_t t0 = NowNs();
    const bool opened = t->Open(/*create=*/false);
    const uint64_t t1 = NowNs();
    tracer.Close(open_span);
    if (!opened) {
      report->Fail("embed-write: reopen %d failed", r);
      return;
    }
    const uint64_t key = rng.NextBounded(kPresent) + 1;
    uint64_t value = 0;
    const uint32_t read_span =
        tracer.Open("recovery.first_read", r, round.id());
    const Status st = t->index->Search(key, &value);
    const uint64_t t2 = NowNs();
    tracer.Close(read_span);
    ++report->attempted;
    if (st != Status::kOk || value != EncodeValue(key, 0)) {
      ++report->failed;
      report->Fail("embed-write: key %llu wrong after reopen",
                   static_cast<unsigned long long>(key));
    }
    out->reopen_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    out->open_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    out->first_read_us.push_back(static_cast<double>(t2 - t1) / 1e3);
  }
}

}  // namespace

void RunEmbedWrite(const RunConfig& config, Report* report) {
  Tracer tracer(config.trace);
  Tracer untraced(false);
  Table t;
  t.path = config.dir + "/embed.pool";

  // Rounds until --seconds have passed; a traced run alternates untraced
  // and traced rounds to measure the tracing overhead.
  std::vector<double> setup_s;
  StreamResult plain, traced;
  OpCounts first;
  bool counts_repeat = true;
  ReopenSamples reopens;
  StealProbe steal;
  steal.Start();
  const uint64_t end =
      NowNs() + static_cast<uint64_t>(config.seconds) * 1'000'000'000ull;
  for (int round = 0;
       NowNs() < end || round < kMinRounds * (config.trace ? 2 : 1);
       ++round) {
    const bool traced_round = config.trace && round % 2 == 1;
    t.Close();
    const uint64_t t0 = NowNs();
    if (!SetUp(&t, report)) return;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    const OpCounts counts =
        RunStream(config, &t, traced_round ? tracer : untraced,
                  traced_round ? &traced : &plain, report);
    ReopenRounds(config, &t, round, tracer, &reopens, report);
    if (round == 0) {
      first = counts;
    } else if (!(counts == first)) {
      counts_repeat = false;
      std::fprintf(stderr,
                   "perfbench: embed-write round %d's PM/AMAC counts differ "
                   "from round 0's\n",
                   round);
    }
  }
  t.Close();
  SetEmulation(0, 0);
  std::remove(t.path.c_str());
  RecordHost(steal, report);
  ReportSetup(setup_s, report);

  report->Set("mops", Median(plain.chunk_mops), "Mops");
  report->Set("read_p50_us", Percentile(plain.read_us, 0.5), "us");
  report->Set("write_p50_us", Percentile(plain.write_us, 0.5), "us");
  report->Set("embed.read_p99_us", Percentile(plain.read_us, 0.99), "us");
  report->Set("embed.rounds", static_cast<double>(setup_s.size()), "count");
  report->Set("reopen_ms", Median(reopens.reopen_ms), "ms");
  report->Set("recovery.open_ms", Median(reopens.open_ms), "ms");
  // One table: the slowest (only) shard is the whole open.
  report->Set("recovery.shard_max_ms", Median(reopens.open_ms), "ms");
  report->Set("recovery.first_read_us", Median(reopens.first_read_us), "us");
  report->Set("embed.counts_repeat", counts_repeat, "bool");
  report->Set("pmem.spin_scale", Median(plain.spin_scale), "ratio");
  ReportOpCounts(first, report);

  if (config.trace) {
    report->Set("trace.overhead_pct", (plain.Mops() / traced.Mops() - 1) * 100,
                "%");
    std::vector<double> exec_us = traced.read_us;
    exec_us.insert(exec_us.end(), traced.write_us.begin(),
                   traced.write_us.end());
    report->Set("dash.exec_p50_us", Median(exec_us), "us");
    report->Set("dash.search_ns_per_op",
                traced.search_ns / static_cast<double>(traced.search_ops),
                "ns");
    report->Set("dash.insert_ns_per_op",
                traced.insert_ns / static_cast<double>(traced.insert_ops),
                "ns");
    WriteTrace(config, tracer, report);
  }
}

}  // namespace perfbench
