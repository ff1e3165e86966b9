// Table 1: time until the table can serve requests after a crash, as a
// function of indexed data size.
//
// Expected shape: Dash-EH / Dash-LH / Level hashing are constant (open the
// pool, read/bump one byte); CCEH grows linearly with data size because it
// must scan the whole directory before serving.
// Paper sizes (40M-1280M records) are scaled by --scale.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "pmem/index_persist.h"

using namespace dash;
using namespace dash::bench;

namespace {

double MeasureRecoveryMs(api::IndexKind kind, const BenchConfig& config,
                         uint64_t records) {
  DashOptions opts;
  static int counter = 0;
  const std::string path = config.pool_dir + "/dash_tab1_" +
                           std::to_string(getpid()) + "_" +
                           std::to_string(counter++);
  std::remove(path.c_str());
  pmem::PmPool::Options pool_options;
  pool_options.pool_size = config.pool_gb << 30;

  {
    auto pool = pmem::PmPool::Create(path, pool_options);
    if (pool == nullptr) std::exit(1);
    epoch::EpochManager epochs;
    auto table = api::CreateKvIndex(kind, pool.get(), &epochs, opts);
    const int threads = config.thread_counts.back();
    RunParallel(threads, records,
                [&](int, uint64_t begin, uint64_t end) {
                  for (uint64_t i = begin; i < end; ++i) {
                    table->Insert(i + 1, i + 1);
                  }
                });
    epochs.DiscardAll();
    table.reset();
    pool->CloseDirty();  // simulated power failure
  }

  // Time-to-ready: open the pool and construct the table (for CCEH this
  // includes the directory scan; for Dash/Level it is constant work).
  const auto start = std::chrono::steady_clock::now();
  auto pool = pmem::PmPool::Open(path);
  if (pool == nullptr) std::exit(1);
  epoch::EpochManager epochs;
  auto table = api::CreateKvIndex(kind, pool.get(), &epochs, opts);
  // First request serviceable here.
  uint64_t value;
  table->Search(1, &value);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  table.reset();
  pool->CloseClean();
  std::remove(path.c_str());
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             elapsed)
      .count();
}

// ---- sharded mode (--shards=N): parallel recovery speedup ----

api::ShardedStoreOptions ShardedOptions(api::IndexKind kind,
                                        const BenchConfig& config,
                                        const std::string& prefix,
                                        size_t recovery_threads) {
  api::ShardedStoreOptions options;
  options.kind = kind;
  options.shards = config.shards;
  options.path_prefix = prefix;
  options.shard_pool_size = std::max<size_t>(
      (config.pool_gb << 30) / config.shards, 64ull << 20);
  options.async.workers = false;  // isolate recovery from worker spawn
  options.recovery_threads = recovery_threads;
  return options;
}

void PrintShardMs(const std::vector<double>& shard_ms) {
  std::printf("[");
  for (size_t i = 0; i < shard_ms.size(); ++i) {
    std::printf("%s%.3f", i == 0 ? "" : ",", shard_ms[i]);
  }
  std::printf("]");
}

// Crash-reopen an N-shard store with 1 recovery thread, then again with
// one thread per shard, and report the wall-clock speedup plus per-shard
// open+verify times as one JSON line per table kind.
void RunSharded(api::IndexKind kind, const BenchConfig& config) {
  static int counter = 0;
  const std::string prefix = config.pool_dir + "/dash_tab1_sharded_" +
                             std::to_string(getpid()) + "_" +
                             std::to_string(counter++);
  const uint64_t records = config.Scaled(40'000'000);

  {
    auto store =
        api::ShardedStore::Open(ShardedOptions(kind, config, prefix, 0));
    if (store == nullptr) std::exit(1);
    const int threads = config.thread_counts.back();
    RunParallel(threads, records, [&](int, uint64_t begin, uint64_t end) {
      for (uint64_t i = begin; i < end; ++i) {
        store->Insert(i + 1, i + 1);
      }
    });
    // Destroyed without CloseClean: every shard pool closes dirty — the
    // same on-disk image a power failure leaves.
  }
  {
    // Throwaway open: settles the one-time crash roll-forward so the two
    // timed runs below verify comparable images. Left dirty again.
    auto store =
        api::ShardedStore::Open(ShardedOptions(kind, config, prefix, 0));
    if (store == nullptr) std::exit(1);
  }

  api::RecoveryReport serial;
  {
    auto store =
        api::ShardedStore::Open(ShardedOptions(kind, config, prefix, 1));
    if (store == nullptr) std::exit(1);
    serial = store->recovery_report();
    // Dirty again for the parallel run.
  }
  api::RecoveryReport parallel;
  {
    // One recovery thread per shard, requested explicitly so the bench
    // exercises the parallel path even when the host caps the default
    // (recovery_threads=0 uses min(shards, hardware_concurrency)).
    auto store = api::ShardedStore::Open(
        ShardedOptions(kind, config, prefix, config.shards));
    if (store == nullptr) std::exit(1);
    parallel = store->recovery_report();
    store->CloseClean();
  }
  for (size_t i = 0; i < config.shards; ++i) {
    std::remove((prefix + ".shard" + std::to_string(i)).c_str());
  }
  std::remove((prefix + ".manifest").c_str());

  std::printf("{\"bench\":\"tab1_recovery_sharded\",\"kind\":\"%s\","
              "\"shards\":%zu,\"records\":%lu,"
              "\"serial_total_ms\":%.3f,\"parallel_threads\":%zu,"
              "\"parallel_total_ms\":%.3f,\"speedup\":%.2f,"
              "\"serial_shard_ms\":",
              api::IndexKindName(kind), config.shards,
              static_cast<unsigned long>(records), serial.total_ms,
              parallel.threads, parallel.total_ms,
              parallel.total_ms > 0 ? serial.total_ms / parallel.total_ms
                                    : 0.0);
  PrintShardMs(serial.shard_ms);
  std::printf(",\"parallel_shard_ms\":");
  PrintShardMs(parallel.shard_ms);
  std::printf("}\n");
  std::fflush(stdout);
}

// ---- checkpoint mode (--checkpoint): restart is a load, not a rebuild ----
//
// A/B over the same crashed pool image: reopen the hybrid tier from a
// fresh checkpoint (load + empty tail replay) vs from the full log scan.
// The scan leg runs second — on a warmer page cache — so the reported
// speedup is conservative. checkpoint_file_ms is the checkpoint file
// layer alone (read plus checksum) inside the checkpointed open. The CI
// recovery-SLO gate parses the single-table JSON line and fails if
// checkpoint_open_ms > 0.5 * scan_open_ms.

struct TimedOpen {
  double ms = 0.0;
  api::IndexStats stats;
};

// Time-to-first-request for a hybrid table at `path`; leaves the pool
// dirty so the next open sees the same crash image.
TimedOpen TimedHybridOpen(const std::string& path, const DashOptions& opts) {
  const auto start = std::chrono::steady_clock::now();
  auto pool = pmem::PmPool::Open(path);
  if (pool == nullptr) std::exit(1);
  epoch::EpochManager epochs;
  auto table =
      api::CreateKvIndex(api::IndexKind::kHybrid, pool.get(), &epochs, opts);
  uint64_t value;
  table->Search(1, &value);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  TimedOpen out;
  out.ms = std::chrono::duration<double, std::milli>(elapsed).count();
  out.stats = table->Stats();
  epochs.DiscardAll();
  table.reset();
  pool->CloseDirty();
  return out;
}

void RunCheckpointSingle(const BenchConfig& config) {
  static int counter = 0;
  const std::string path = config.pool_dir + "/dash_tab1_ckpt_" +
                           std::to_string(getpid()) + "_" +
                           std::to_string(counter++);
  std::remove(path.c_str());
  const uint64_t records = config.Scaled(50'000'000);  // 1M at --scale=0.02
  DashOptions opts;
  opts.checkpoint_path = path + ".ckpt";
  pmem::RemoveCheckpointFile(opts.checkpoint_path);
  pmem::PmPool::Options pool_options;
  pool_options.pool_size = config.pool_gb << 30;

  {
    auto pool = pmem::PmPool::Create(path, pool_options);
    if (pool == nullptr) std::exit(1);
    epoch::EpochManager epochs;
    auto table = api::CreateKvIndex(api::IndexKind::kHybrid, pool.get(),
                                    &epochs, opts);
    const int threads = config.thread_counts.back();
    RunParallel(threads, records, [&](int, uint64_t begin, uint64_t end) {
      for (uint64_t i = begin; i < end; ++i) {
        table->Insert(i + 1, i + 1);
      }
    });
    if (!table->WriteCheckpoint()) std::exit(1);
    epochs.DiscardAll();
    table.reset();
    pool->CloseDirty();  // power failure with a fresh checkpoint on disk
  }

  // B: checkpoint load + (empty) tail replay. Must run first — the
  // checkpoint is stamped with the writer run's generation, and every
  // open bumps it.
  const TimedOpen ckpt = TimedHybridOpen(path, opts);
  // A: full log scan over the same image (checkpoint removed, no path
  // configured so the fallback is silent).
  pmem::RemoveCheckpointFile(opts.checkpoint_path);
  const TimedOpen scan = TimedHybridOpen(path, DashOptions{});
  std::remove(path.c_str());

  std::printf(
      "{\"bench\":\"tab1_recovery_checkpoint\",\"kind\":\"hybrid\","
      "\"records\":%lu,\"checkpoint_open_ms\":%.3f,"
      "\"checkpoint_file_ms\":%.3f,\"scan_open_ms\":%.3f,"
      "\"speedup\":%.2f,\"checkpoint_source\":\"%s\","
      "\"scan_source\":\"%s\",\"replayed\":%lu,\"staleness\":%lu}\n",
      static_cast<unsigned long>(records), ckpt.ms,
      ckpt.stats.recovery_file_ms, scan.ms,
      ckpt.ms > 0 ? scan.ms / ckpt.ms : 0.0,
      RecoverySourceName(ckpt.stats.recovery_source),
      RecoverySourceName(scan.stats.recovery_source),
      static_cast<unsigned long>(ckpt.stats.recovery_replayed),
      static_cast<unsigned long>(ckpt.stats.recovery_staleness));
  std::fflush(stdout);
}

// Sharded A/B at --shards=N: crash-reopen an N-shard hybrid store with
// per-shard checkpoints on disk vs after removing them (pure scan).
// verify_on_open is disabled so both legs time index construction alone.
void RunCheckpointSharded(const BenchConfig& config) {
  static int counter = 0;
  const std::string prefix = config.pool_dir + "/dash_tab1_ckpt_sharded_" +
                             std::to_string(getpid()) + "_" +
                             std::to_string(counter++);
  const uint64_t records = config.Scaled(50'000'000);
  auto options =
      ShardedOptions(api::IndexKind::kHybrid, config, prefix, 0);
  options.verify_on_open = false;

  {
    auto store = api::ShardedStore::Open(options);
    if (store == nullptr) std::exit(1);
    const int threads = config.thread_counts.back();
    RunParallel(threads, records, [&](int, uint64_t begin, uint64_t end) {
      for (uint64_t i = begin; i < end; ++i) {
        store->Insert(i + 1, i + 1);
      }
    });
    for (size_t s = 0; s < config.shards; ++s) {
      if (!store->shard(s)->WriteCheckpoint()) std::exit(1);
    }
    // Destroyed without CloseClean: dirty pools + fresh checkpoints.
  }
  api::RecoveryReport with_ckpt;
  {
    auto store = api::ShardedStore::Open(options);
    if (store == nullptr) std::exit(1);
    with_ckpt = store->recovery_report();
    // Dirty again for the scan leg.
  }
  for (size_t s = 0; s < config.shards; ++s) {
    pmem::RemoveCheckpointFile(prefix + ".shard" + std::to_string(s) +
                               ".ckpt");
  }
  options.checkpoints = false;  // no per-shard path: pure scan reopen
  api::RecoveryReport without_ckpt;
  {
    auto store = api::ShardedStore::Open(options);
    if (store == nullptr) std::exit(1);
    without_ckpt = store->recovery_report();
    store->CloseClean();
  }
  for (size_t s = 0; s < config.shards; ++s) {
    std::remove((prefix + ".shard" + std::to_string(s)).c_str());
  }
  std::remove((prefix + ".manifest").c_str());

  uint64_t replayed = 0;
  for (uint64_t r : with_ckpt.shard_replayed) replayed += r;
  // Shards load in parallel, so the slowest shard's file layer is the one
  // on the open's critical path.
  double file_ms = 0.0;
  for (double ms : with_ckpt.shard_file_ms) file_ms = std::max(file_ms, ms);
  std::printf(
      "{\"bench\":\"tab1_recovery_checkpoint_sharded\",\"kind\":\"hybrid\","
      "\"shards\":%zu,\"records\":%lu,\"checkpoint_total_ms\":%.3f,"
      "\"checkpoint_file_ms\":%.3f,"
      "\"scan_total_ms\":%.3f,\"speedup\":%.2f,\"shard_source\":[",
      config.shards, static_cast<unsigned long>(records),
      with_ckpt.total_ms, file_ms, without_ckpt.total_ms,
      with_ckpt.total_ms > 0 ? without_ckpt.total_ms / with_ckpt.total_ms
                             : 0.0);
  for (size_t s = 0; s < with_ckpt.shard_source.size(); ++s) {
    std::printf("%s\"%s\"", s == 0 ? "" : ",",
                with_ckpt.shard_source[s].c_str());
  }
  std::printf("],\"replayed\":%lu,\"checkpoint_shard_ms\":",
              static_cast<unsigned long>(replayed));
  PrintShardMs(with_ckpt.shard_ms);
  std::printf(",\"checkpoint_file_shard_ms\":");
  PrintShardMs(with_ckpt.shard_file_ms);
  std::printf(",\"scan_shard_ms\":");
  PrintShardMs(without_ckpt.shard_ms);
  std::printf("}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = ParseArgs(argc, argv);
  bool checkpoint_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--checkpoint") == 0) checkpoint_mode = true;
  }
  if (checkpoint_mode) {
    RunCheckpointSingle(config);
    if (config.shards > 0) RunCheckpointSharded(config);
    return 0;
  }
  if (config.shards > 0) {
    const api::IndexKind kinds[] = {api::IndexKind::kDashEH,
                                    api::IndexKind::kDashLH,
                                    api::IndexKind::kCCEH,
                                    api::IndexKind::kLevel};
    for (api::IndexKind kind : kinds) RunSharded(kind, config);
    return 0;
  }
  std::printf("# tab1_recovery: time (ms) until first request, vs records\n");
  const uint64_t paper_sizes[] = {40'000'000, 80'000'000, 160'000'000,
                                  320'000'000};
  std::printf("%-10s", "table");
  for (uint64_t s : paper_sizes) {
    std::printf(" %11luM", static_cast<unsigned long>(s / 1'000'000));
  }
  std::printf("\n");

  const api::IndexKind kinds[] = {api::IndexKind::kDashEH,
                                  api::IndexKind::kDashLH,
                                  api::IndexKind::kCCEH,
                                  api::IndexKind::kLevel};
  for (api::IndexKind kind : kinds) {
    std::printf("%-10s", api::IndexKindName(kind));
    for (uint64_t paper_n : paper_sizes) {
      const uint64_t records = config.Scaled(paper_n);
      std::printf(" %12.2f", MeasureRecoveryMs(kind, config, records));
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}
