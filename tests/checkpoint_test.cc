// Checkpoint subsystem tests (src/pmem/index_persist + the hybrid tier's
// serialize/load path): checkpoint + tail replay equals the model after a
// dirty close for both key widths; every rejection path (torn writer
// crash, truncation, bit flip, stale generation, wrong kind) falls back
// to the full log scan and still serves exactly the model — never wrong,
// only slower; the lane-parallel scan fallback matches the serial one;
// and the sharded store surfaces per-shard provenance, including the
// executor's idle-path periodic refresh.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <cstddef>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "api/kv_index.h"
#include "api/sharded_store.h"
#include "epoch/epoch_manager.h"
#include "hybrid/hybrid_table.h"
#include "pmem/crash_point.h"
#include "pmem/flush_tracker.h"
#include "pmem/index_persist.h"
#include "pmem/pool.h"
#include "test_util.h"
#include "util/rand.h"

namespace dash {
namespace {

using api::IndexKind;
using api::Status;

struct InjectionCleanup {
  ~InjectionCleanup() {
    pmem::CrashPointDisarm();
    if (pmem::TornWriteArmed()) pmem::TornWriteDisarm();
  }
};

// Removes the checkpoint file (and its temp) when the test scope ends.
struct TempCheckpoint {
  explicit TempCheckpoint(std::string p) : path(std::move(p)) {
    pmem::RemoveCheckpointFile(path);
  }
  ~TempCheckpoint() { pmem::RemoveCheckpointFile(path); }
  std::string path;
};

DashOptions SmallOptions(const std::string& ckpt_path = "") {
  DashOptions opts;
  opts.buckets_per_segment = 16;
  opts.checkpoint_path = ckpt_path;
  return opts;
}

// Random op mix against a std::map model. `seed` varies the stream so two
// phases (before / after a checkpoint) touch overlapping key sets.
void RunOps(api::KvIndex* index, std::map<uint64_t, uint64_t>* model,
            int iters, uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (int iter = 0; iter < iters; ++iter) {
    const uint64_t key = rng.NextBounded(6000) + 1;
    const uint64_t value = seed * 1000000 + iter;
    switch (rng.NextBounded(4)) {
      case 0:
      case 1:
        if (api::IsOk(index->Insert(key, value))) (*model)[key] = value;
        break;
      case 2:
        if (api::IsOk(index->Update(key, value))) (*model)[key] = value;
        break;
      default:
        if (api::IsOk(index->Delete(key))) model->erase(key);
        break;
    }
  }
}

// The rebuilt (or loaded) index serves exactly the model and nothing
// else, is structurally sound, and accepts new traffic.
void ExpectEqualsModel(api::KvIndex* index,
                       const std::map<uint64_t, uint64_t>& model) {
  EXPECT_TRUE(index->Verify());
  EXPECT_EQ(index->Stats().records, model.size());
  uint64_t value = 0;
  for (const auto& [key, expected] : model) {
    ASSERT_EQ(index->Search(key, &value), Status::kOk) << "key " << key;
    ASSERT_EQ(value, expected) << "key " << key;
  }
  for (uint64_t key = 1; key <= 6000; ++key) {
    if (model.count(key)) continue;
    ASSERT_EQ(index->Search(key, &value), Status::kNotFound)
        << "absent key " << key << " resurrected";
  }
  for (uint64_t key = 500000; key < 500200; ++key) {
    ASSERT_EQ(index->Insert(key, key), Status::kOk);
  }
}

// Builds a table with a checkpoint taken mid-stream (so the reopen must
// replay a non-empty tail), crashes, and hands the caller the model.
// Returns the on-disk image at `file` with the checkpoint at
// `file.path() + .ckpt`.
std::map<uint64_t, uint64_t> BuildCheckpointThenTail(
    pmem::PmPool* pool, const DashOptions& opts) {
  std::map<uint64_t, uint64_t> model;
  epoch::EpochManager epochs;
  auto index = api::CreateKvIndex(IndexKind::kHybrid, pool, &epochs, opts);
  EXPECT_NE(index, nullptr);
  RunOps(index.get(), &model, 30000, /*seed=*/11);
  EXPECT_TRUE(index->WriteCheckpoint());
  RunOps(index.get(), &model, 15000, /*seed=*/12);  // the tail
  index.reset();  // dirty: pending retirements discarded
  return model;
}

TEST(CheckpointTest, CheckpointPlusTailReplayEqualsModel) {
  test::TempPoolFile file("ckpt_tail");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  const auto model = BuildCheckpointThenTail(pool.get(), opts);
  pool->CloseDirty();
  pool.reset();

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  const api::IndexStats stats = index->Stats();
  EXPECT_EQ(stats.recovery_source, RecoverySource::kCheckpoint);
  EXPECT_GT(stats.recovery_replayed, 0u) << "tail was not replayed";
  EXPECT_GT(stats.recovery_staleness, 0u);
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

TEST(CheckpointTest, VarKeyCheckpointPlusTailReplayEqualsModel) {
  test::TempPoolFile file("ckpt_var_tail");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  auto key_of = [](uint64_t i) { return "ckpt-var-key-" + std::to_string(i); };
  constexpr uint64_t kKeys = 4000;
  {
    epoch::EpochManager epochs;
    auto index =
        api::CreateVarKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    for (uint64_t i = 1; i <= kKeys; ++i) {
      ASSERT_EQ(index->Insert(key_of(i), i), Status::kOk);
    }
    ASSERT_TRUE(index->WriteCheckpoint());
    // Tail: updates, deletes, and re-inserts past the watermarks — the
    // replay must win over the checkpointed slots.
    for (uint64_t i = 1; i <= kKeys; i += 2) {
      ASSERT_EQ(index->Update(key_of(i), i * 2), Status::kOk);
    }
    for (uint64_t i = 4; i <= kKeys; i += 4) {
      ASSERT_EQ(index->Delete(key_of(i)), Status::kOk);
    }
    for (uint64_t i = 8; i <= kKeys; i += 8) {
      ASSERT_EQ(index->Insert(key_of(i), i * 3), Status::kOk);
    }
    index.reset();
    pool->CloseDirty();
    pool.reset();
  }

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateVarKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(index->Verify());
  EXPECT_EQ(index->Stats().recovery_source, RecoverySource::kCheckpoint);
  EXPECT_GT(index->Stats().recovery_replayed, 0u);
  uint64_t value = 0;
  for (uint64_t i = 1; i <= kKeys; ++i) {
    if (i % 8 == 0) {
      ASSERT_EQ(index->Search(key_of(i), &value), Status::kOk) << i;
      ASSERT_EQ(value, i * 3) << i;
    } else if (i % 4 == 0) {
      ASSERT_EQ(index->Search(key_of(i), &value), Status::kNotFound) << i;
    } else {
      ASSERT_EQ(index->Search(key_of(i), &value), Status::kOk) << i;
      ASSERT_EQ(value, i % 2 == 1 ? i * 2 : i) << i;
    }
  }
  index->CloseClean();
  pool->CloseClean();
}

// A quiesced clean close writes an exact checkpoint: the reopen loads it
// with an empty tail (replayed == 0, staleness == 0).
TEST(CheckpointTest, CleanCloseCheckpointHasEmptyTail) {
  test::TempPoolFile file("ckpt_clean");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  std::map<uint64_t, uint64_t> model;
  {
    epoch::EpochManager epochs;
    auto index =
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    RunOps(index.get(), &model, 30000, /*seed=*/21);
    index->CloseClean();  // writes the checkpoint
    pool->CloseClean();
    pool.reset();
  }

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  const api::IndexStats stats = index->Stats();
  EXPECT_EQ(stats.recovery_source, RecoverySource::kCheckpoint);
  EXPECT_EQ(stats.recovery_replayed, 0u);
  EXPECT_EQ(stats.recovery_staleness, 0u);
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

// Crash inside the checkpoint writer at every CRASH_POINT, under the
// torn-write simulation. Whatever the file ends up as — stray temp, old
// file, or fully renamed new file — the reopen serves exactly the model:
// a complete checkpoint is accepted, anything else is rejected into the
// scan path.
TEST(CheckpointCrashTest, TornWriterSweepReopensModelEquivalent) {
  for (const char* point : {"ckpt_after_temp_write", "ckpt_after_checksum",
                            "ckpt_after_rename"}) {
    SCOPED_TRACE(point);
    InjectionCleanup cleanup;
    test::TempPoolFile file("ckpt_torn");
    TempCheckpoint ckpt(file.path() + ".ckpt");
    auto pool = test::CreatePool(file);
    ASSERT_NE(pool, nullptr);
    const DashOptions opts = SmallOptions(ckpt.path);
    std::map<uint64_t, uint64_t> model;
    {
      epoch::EpochManager epochs;
      auto index =
          api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
      ASSERT_NE(index, nullptr);
      RunOps(index.get(), &model, 20000, /*seed=*/31);
      ASSERT_TRUE(pmem::TornWriteArm());
      ASSERT_TRUE(pmem::CrashPointArm(point));
      EXPECT_THROW(index->WriteCheckpoint(), pmem::CrashInjected);
      pmem::CrashPointDisarm();
      pmem::TornWriteRevert();
      index.reset();
      pool->CloseDirty();
      pool.reset();
    }

    pool = pmem::PmPool::Open(file.path());
    ASSERT_NE(pool, nullptr);
    epoch::EpochManager epochs;
    auto index =
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    // Only a crash after the rename leaves a complete, current file.
    const RecoverySource expected =
        std::string(point) == "ckpt_after_rename"
            ? RecoverySource::kCheckpoint
            : RecoverySource::kScan;
    EXPECT_EQ(index->Stats().recovery_source, expected);
    ExpectEqualsModel(index.get(), model);
    index->CloseClean();
    pool->CloseClean();
  }
}

// A crash *between* the log scan and the tail replay of a checkpoint
// load leaves the on-disk image untouched (the load path is PM-read-
// only); the next open converges to the same table.
TEST(CheckpointCrashTest, CrashMidCheckpointLoadIsIdempotent) {
  InjectionCleanup cleanup;
  test::TempPoolFile file("ckpt_load_crash");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  const auto model = BuildCheckpointThenTail(pool.get(), opts);
  pool->CloseDirty();
  pool.reset();

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  {
    epoch::EpochManager epochs;
    ASSERT_TRUE(pmem::TornWriteArm());
    ASSERT_TRUE(pmem::CrashPointArm("hybrid_ckpt_load_after_scan"));
    EXPECT_THROW(
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts),
        pmem::CrashInjected);
    pmem::CrashPointDisarm();
    pmem::TornWriteRevert();
    pool->CloseDirty();
    pool.reset();
  }

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  // The interrupted load bumped the generation, so the checkpoint is now
  // stale — this open must scan, and must still serve the model.
  EXPECT_EQ(index->Stats().recovery_source, RecoverySource::kScan);
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

// Shared tail for the file-corruption rejection tests: mutate the
// checkpoint file with `corrupt`, reopen, and require scan-fallback with
// model equivalence.
void RunRejection(const std::string& tag,
                  const std::function<void(const std::string&)>& corrupt) {
  test::TempPoolFile file("ckpt_" + tag);
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  const auto model = BuildCheckpointThenTail(pool.get(), opts);
  pool->CloseDirty();
  pool.reset();

  corrupt(ckpt.path);

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Stats().recovery_source, RecoverySource::kScan)
      << "corrupt checkpoint was not rejected";
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

TEST(CheckpointRejectionTest, TruncatedFileFallsBackToScan) {
  RunRejection("trunc", [](const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good());
    const auto size = static_cast<long>(in.tellg());
    in.close();
    ASSERT_GT(size, 64);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  });
}

TEST(CheckpointRejectionTest, BitFlippedPayloadFallsBackToScan) {
  RunRejection("flip", [](const std::string& path) {
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(io.good());
    io.seekg(0, std::ios::end);
    const auto size = static_cast<long>(io.tellg());
    ASSERT_GT(size, 200);
    io.seekp(size / 2);
    char byte = 0;
    io.seekg(size / 2);
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    io.seekp(size / 2);
    io.write(&byte, 1);
  });
}

// A checkpoint left behind by run N is stale once run N+1 appended or
// recycled log records without refreshing it: run N+2 must reject it (the
// slots it references may have been reused for other keys) and scan.
TEST(CheckpointRejectionTest, StaleGenerationFallsBackToScan) {
  test::TempPoolFile file("ckpt_stale");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  std::map<uint64_t, uint64_t> model;
  {
    // Run 1: checkpoint, crash.
    epoch::EpochManager epochs;
    auto index =
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    RunOps(index.get(), &model, 20000, /*seed=*/41);
    ASSERT_TRUE(index->WriteCheckpoint());
    index.reset();
    pool->CloseDirty();
    pool.reset();
  }
  {
    // Run 2: opens (consuming the checkpoint's generation), mutates
    // without ever refreshing the checkpoint, crashes.
    pool = pmem::PmPool::Open(file.path());
    ASSERT_NE(pool, nullptr);
    epoch::EpochManager epochs;
    DashOptions no_ckpt = opts;
    no_ckpt.checkpoint_path.clear();
    auto index = api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs,
                                    no_ckpt);
    ASSERT_NE(index, nullptr);
    RunOps(index.get(), &model, 20000, /*seed=*/42);
    index.reset();
    pool->CloseDirty();
    pool.reset();
  }

  // Run 3: the on-disk checkpoint carries run 1's generation — stale.
  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Stats().recovery_source, RecoverySource::kScan)
      << "stale-generation checkpoint was not rejected";
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

// A checkpoint from a table with a different key policy (var-key) must be
// rejected by its kind tag before anything is interpreted.
TEST(CheckpointRejectionTest, WrongKindFallsBackToScan) {
  test::TempPoolFile var_file("ckpt_kind_var");
  TempCheckpoint var_ckpt(var_file.path() + ".ckpt");
  {
    // Produce a perfectly valid checkpoint — of the wrong flavour.
    auto pool = test::CreatePool(var_file);
    ASSERT_NE(pool, nullptr);
    epoch::EpochManager epochs;
    auto index = api::CreateVarKvIndex(IndexKind::kHybrid, pool.get(),
                                       &epochs, SmallOptions(var_ckpt.path));
    ASSERT_NE(index, nullptr);
    for (uint64_t i = 1; i <= 500; ++i) {
      ASSERT_EQ(index->Insert("kind-key-" + std::to_string(i), i),
                Status::kOk);
    }
    ASSERT_TRUE(index->WriteCheckpoint());
    index->CloseClean();
    pool->CloseClean();
  }
  RunRejection("kind", [&](const std::string& path) {
    std::ifstream in(var_ckpt.path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    ASSERT_TRUE(out.good());
  });
}

// The lane-parallel scan fallback (satellite of ROADMAP item 4) must
// produce the same table as the serial scan — including the parallel
// winner-insert path, which needs a few thousand live keys to engage.
TEST(CheckpointTest, ParallelRebuildEqualsModel) {
  test::TempPoolFile file("ckpt_par_rebuild");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  DashOptions opts = SmallOptions();
  std::map<uint64_t, uint64_t> model;
  {
    epoch::EpochManager epochs;
    auto index =
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    RunOps(index.get(), &model, 60000, /*seed=*/51);
    index.reset();
    pool->CloseDirty();
    pool.reset();
  }

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  opts.rebuild_threads = 4;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Stats().recovery_source, RecoverySource::kScan);
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

// Overwrites `bytes` bytes at `offset` of the file at `path`.
void PatchFile(const std::string& path, long offset, const void* data,
               size_t bytes) {
  std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(io.good());
  io.seekp(offset);
  io.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  ASSERT_TRUE(io.good());
}

// Header field offsets: magic(8) version(4) pad(4) kind_tag(8)
// generation(8) payload_bytes(8) checksum(8).
constexpr long kVersionOffset = 8;
constexpr long kPayloadBytesOffset = 32;

// A version-1 file (the single-chain checksum, copy-on-load layout) is
// refused by its version field and the open falls back to the scan.
TEST(CheckpointRejectionTest, VersionOneFileFallsBackToScan) {
  RunRejection("v1", [](const std::string& path) {
    const uint32_t v1 = 1;
    PatchFile(path, kVersionOffset, &v1, sizeof(v1));
    pmem::CheckpointPayload payload;
    EXPECT_EQ(pmem::ReadCheckpointFile(path, pmem::CheckpointMeta{}, &payload),
              pmem::CheckpointLoad::kBadVersion);
    EXPECT_EQ(payload.data, nullptr);
  });
}

// A length field claiming more payload than the file holds is rejected
// as truncated before any payload buffer is allocated.
TEST(CheckpointRejectionTest, OverlongPayloadLengthIsRejected) {
  RunRejection("overlong", [](const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good());
    const auto size = static_cast<uint64_t>(in.tellg());
    in.close();
    for (const uint64_t claimed :
         {size - pmem::kCheckpointHeaderBytes + 1, uint64_t{1} << 29,
          ~uint64_t{0}}) {
      PatchFile(path, kPayloadBytesOffset, &claimed, sizeof(claimed));
      uint64_t kind_and_gen[2];
      std::ifstream hdr(path, std::ios::binary);
      hdr.seekg(16);
      hdr.read(reinterpret_cast<char*>(kind_and_gen), sizeof(kind_and_gen));
      pmem::CheckpointMeta expect;
      expect.kind_tag = kind_and_gen[0];
      expect.generation = kind_and_gen[1];
      pmem::CheckpointPayload payload;
      EXPECT_EQ(pmem::ReadCheckpointFile(path, expect, &payload),
                pmem::CheckpointLoad::kBadChecksum)
          << "claimed " << claimed;
      EXPECT_EQ(payload.data, nullptr) << "allocated before the size check";
    }
  });
}

// ---- orphan sweep equivalence ----

hybrid::HybridOptions SweepOptions(const std::string& ckpt_path) {
  hybrid::HybridOptions o;
  o.buckets_per_segment = 16;
  o.log_lanes = 4;
  o.records_per_chunk = 256;
  o.checkpoint_path = ckpt_path;
  return o;
}

// Read-only census of the committed log records: per-lane counts and
// every record's meta word, by handle.
struct LogCensus {
  uint64_t committed[hybrid::kMaxLanes] = {};
  std::unordered_map<uint64_t, uint64_t> meta;
};

LogCensus TakeCensus(pmem::PmPool* pool) {
  auto* root = static_cast<hybrid::HybridRoot*>(pool->root());
  hybrid::HybridLog log(pool, root->lane_heads, root->log_lanes,
                        root->records_per_chunk);
  LogCensus census;
  for (uint32_t li = 0; li < root->log_lanes; ++li) {
    log.ScanLane(li, [&](hybrid::LogRecord*, uint64_t handle, uint64_t meta) {
      ++census.committed[li];
      census.meta[handle] = meta;
    });
  }
  return census;
}

// Recounts, from the checkpoint file and the pre-open log, how many
// checkpointed slots per lane the load must drop: those whose record is
// not committed, a tombstone, or past its lane's watermark.
std::vector<uint64_t> RecountDrops(const std::string& ckpt_path,
                                   const hybrid::HybridOptions& opts,
                                   const LogCensus& census) {
  std::ifstream in(ckpt_path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const char* payload = file.data() + pmem::kCheckpointHeaderBytes;
  hybrid::HybridCheckpointHeader ph;
  std::memcpy(&ph, payload, sizeof(ph));
  const size_t seg_bytes = hybrid::HybridSegment::AllocSize(
      opts.buckets_per_segment, opts.stash_slots);
  const size_t stride = hybrid::SegmentArena::Stride(seg_bytes);
  EXPECT_EQ(file.size(), pmem::kCheckpointHeaderBytes +
                             hybrid::kCheckpointSegmentsOffset +
                             ph.num_segments * stride);
  std::vector<uint64_t> drops(hybrid::kMaxLanes, 0);
  for (uint64_t s = 0; s < ph.num_segments; ++s) {
    const char* image =
        payload + hybrid::kCheckpointSegmentsOffset + s * stride;
    const size_t slots =
        opts.buckets_per_segment * hybrid::kSlotsPerBucket + opts.stash_slots;
    for (size_t i = 0; i < slots; ++i) {
      const size_t b = i / hybrid::kSlotsPerBucket;
      const size_t at =
          b < opts.buckets_per_segment
              ? sizeof(hybrid::HybridSegment) + b * sizeof(hybrid::HybridBucket) +
                    offsetof(hybrid::HybridBucket, slots) +
                    (i % hybrid::kSlotsPerBucket) * sizeof(hybrid::HybridSlot)
              : sizeof(hybrid::HybridSegment) +
                    opts.buckets_per_segment * sizeof(hybrid::HybridBucket) +
                    (i - opts.buckets_per_segment * hybrid::kSlotsPerBucket) *
                        sizeof(hybrid::HybridSlot);
      hybrid::HybridSlot slot;
      std::memcpy(&slot, image + at, sizeof(slot));
      if (slot.key == hybrid::kEmptyKey) continue;
      const uint32_t lane = hybrid::HandleLane(slot.off);
      const auto it = census.meta.find(slot.off);
      const bool trusted =
          it != census.meta.end() &&
          !hybrid::LogRecord::IsTombstone(it->second) &&
          hybrid::LogRecord::Seq(it->second) <= ph.watermarks[lane];
      if (!trusted) ++drops[lane];
    }
  }
  return drops;
}

// The checkpoint open's garbage collection, checked against a recount.
// Before the checkpoint: updates and deletes whose epoch retirements are
// still pending at the crash (lost: superseded records and tombstones at
// or below the watermarks). In the tail: the same key updated twice
// (superseded within the tail), deletes (tombstones past the
// watermarks), and re-inserts of keys deleted before the checkpoint.
// With `reclaim_in_tail`, the first tail writes are reclaimed before the
// rest of the tail, so some checkpointed slots name zeroed or recycled
// records and the load drops them. After the open: the committed log
// records are exactly the records the index references, and each lane's
// dead-slot count is its recounted drops plus the records the open
// reclaimed.
template <typename KP, typename KeyOf>
void RunOrphanSweep(const std::string& tag, bool reclaim_in_tail,
                    KeyOf key_of) {
  SCOPED_TRACE(tag);
  test::TempPoolFile file(tag);
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const hybrid::HybridOptions opts = SweepOptions(ckpt.path);
  constexpr uint64_t kKeys = 3000;
  std::map<uint64_t, uint64_t> model;
  {
    epoch::EpochManager epochs;
    hybrid::HybridTable<KP> table(pool.get(), &epochs, opts);
    // Each phase runs on its own thread, so appends spread over lanes.
    auto phase = [&](uint64_t step, uint64_t rem, int op, uint64_t tagv) {
      std::thread([&] {
        for (uint64_t i = rem == 0 ? step : rem; i <= kKeys; i += step) {
          const uint64_t value = tagv * 100000 + i;
          if (op == 0 && table.Insert(key_of(i), value) == OpStatus::kOk) {
            model[i] = value;
          } else if (op == 1 &&
                     table.Update(key_of(i), value) == OpStatus::kOk) {
            model[i] = value;
          } else if (op == 2 && table.Delete(key_of(i)) == OpStatus::kOk) {
            model.erase(i);
          }
        }
      }).join();
    };
    phase(1, 0, 0, 1);   // insert every key
    phase(3, 0, 1, 2);   // update, reclaimed below
    phase(10, 0, 2, 3);  // delete, reclaimed below
    epochs.DrainAll();
    std::optional<epoch::EpochManager::Guard> pin;
    pin.emplace(epochs);  // retirements from here on are lost at the crash
    phase(7, 1, 1, 4);    // superseded records at or below the watermarks
    phase(11, 2, 2, 5);   // tombstones at or below the watermarks
    ASSERT_TRUE(table.WriteCheckpoint());
    if (reclaim_in_tail) {
      pin.reset();
      phase(6, 4, 1, 6);  // superseded checkpointed records, then...
      epochs.DrainAll();  // ...zeroed: their checkpointed slots drop
      phase(9, 5, 0, 7);  // and some zeroed slots recycled by inserts
      phase(4, 3, 1, 7);
      pin.emplace(epochs);
    }
    phase(5, 0, 1, 8);    // updated twice in the tail
    phase(5, 0, 1, 9);
    phase(13, 3, 2, 10);  // tombstones past the watermarks
    phase(11, 2, 0, 11);  // re-insert keys deleted before the checkpoint
    pin.reset();
    // Destroyed without CloseClean: pending retirements are discarded.
  }
  pool->CloseDirty();
  pool.reset();

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  const LogCensus before = TakeCensus(pool.get());
  const std::vector<uint64_t> drops = RecountDrops(ckpt.path, opts, before);
  epoch::EpochManager epochs;
  hybrid::HybridTable<KP> table(pool.get(), &epochs, opts);
  const hybrid::HybridStats stats = table.Stats();
  ASSERT_EQ(stats.recovery_source, RecoverySource::kCheckpoint);
  EXPECT_GT(stats.recovery_replayed, 0u);
  EXPECT_TRUE(table.VerifyStructure());

  // Every committed record is referenced: VerifyStructure proved each
  // occupied slot names a distinct committed regular record, so equal
  // counts and no committed tombstones make the two sets equal.
  const LogCensus after = TakeCensus(pool.get());
  EXPECT_EQ(after.meta.size(), stats.records);
  for (const auto& [handle, meta] : after.meta) {
    EXPECT_FALSE(hybrid::LogRecord::IsTombstone(meta)) << handle;
  }
  EXPECT_EQ(stats.records, model.size());
  uint64_t value = 0;
  for (uint64_t i = 1; i <= kKeys; ++i) {
    const auto it = model.find(i);
    if (it == model.end()) {
      ASSERT_EQ(table.Search(key_of(i), &value), OpStatus::kNotFound) << i;
    } else {
      ASSERT_EQ(table.Search(key_of(i), &value), OpStatus::kOk) << i;
      ASSERT_EQ(value, it->second) << i;
    }
  }

  uint64_t swept = 0, dropped = 0;
  for (uint32_t li = 0; li < opts.log_lanes; ++li) {
    const uint64_t reclaimed = before.committed[li] - after.committed[li];
    swept += reclaimed;
    dropped += drops[li];
    EXPECT_EQ(table.LaneDeadSlots(li), drops[li] + reclaimed) << "lane " << li;
  }
  EXPECT_GT(swept, 0u) << "scenario left no orphans to sweep";
  if (reclaim_in_tail) EXPECT_GT(dropped, 0u) << "scenario dropped no slot";
  table.CloseClean();
  pool->CloseClean();
}

TEST(CheckpointSweepTest, OrphanSweepMatchesIndexFixedKeys) {
  auto key_of = [](uint64_t i) { return i; };
  RunOrphanSweep<IntKeyPolicy>("ckpt_sweep_fixed", false, key_of);
  RunOrphanSweep<IntKeyPolicy>("ckpt_sweep_fixed_drop", true, key_of);
}

TEST(CheckpointSweepTest, OrphanSweepMatchesIndexVarKeys) {
  auto key_of = [](uint64_t i) { return "sweep-key-" + std::to_string(i); };
  RunOrphanSweep<VarKeyPolicy>("ckpt_sweep_var", false, key_of);
  RunOrphanSweep<VarKeyPolicy>("ckpt_sweep_var_drop", true, key_of);
}

// ---- sharded provenance ----

api::ShardedStoreOptions HybridStoreOptions(const std::string& prefix,
                                            size_t shards) {
  api::ShardedStoreOptions options = test::SmallStoreOptions(prefix, shards);
  options.kind = IndexKind::kHybrid;
  return options;
}

// CloseClean writes one checkpoint per shard; the reopen reports
// source == "checkpoint" for every shard and serves the data.
TEST(ShardedCheckpointTest, CloseCleanThenReopenLoadsEveryShard) {
  test::TempShardPaths paths("ckpt_sharded", 3);
  constexpr uint64_t kKeys = 20000;
  {
    auto store = api::ShardedStore::Open(HybridStoreOptions(paths.prefix(), 3));
    ASSERT_NE(store, nullptr);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(store->Insert(k, k * 3), Status::kOk);
    }
    store->CloseClean();
  }
  auto store = api::ShardedStore::Open(HybridStoreOptions(paths.prefix(), 3));
  ASSERT_NE(store, nullptr);
  const api::RecoveryReport& report = store->recovery_report();
  ASSERT_EQ(report.shard_source.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(report.shard_source[s], "checkpoint") << "shard " << s;
    EXPECT_EQ(report.shard_replayed[s], 0u) << "shard " << s;
  }
  uint64_t value = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(store->Search(k, &value), Status::kOk) << k;
    ASSERT_EQ(value, k * 3);
  }
  store->CloseClean();
}

// With checkpoints disabled the same reopen reports "scan" — the
// provenance plumbing distinguishes the two paths end to end.
TEST(ShardedCheckpointTest, ScanProvenanceWithoutCheckpoints) {
  test::TempShardPaths paths("ckpt_sharded_scan", 2);
  auto options = HybridStoreOptions(paths.prefix(), 2);
  options.checkpoints = false;
  {
    auto store = api::ShardedStore::Open(options);
    ASSERT_NE(store, nullptr);
    for (uint64_t k = 1; k <= 5000; ++k) {
      ASSERT_EQ(store->Insert(k, k), Status::kOk);
    }
    store->CloseClean();
  }
  auto store = api::ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(store->recovery_report().shard_source[s], "scan");
  }
  uint64_t value = 0;
  for (uint64_t k = 1; k <= 5000; ++k) {
    ASSERT_EQ(store->Search(k, &value), Status::kOk) << k;
  }
  store->CloseClean();
}

// The executor's idle path refreshes checkpoints on the configured
// interval — so even a store that crashes (no CloseClean) reopens from a
// checkpoint, replaying only what came after the last refresh.
TEST(ShardedCheckpointTest, PeriodicIdleCheckpointSurvivesCrash) {
  test::TempShardPaths paths("ckpt_periodic", 2);
  auto options = HybridStoreOptions(paths.prefix(), 2);
  options.checkpoint_interval_ms = 20;
  options.async.workers = true;
  constexpr uint64_t kKeys = 10000;
  {
    auto store = api::ShardedStore::Open(options);
    ASSERT_NE(store, nullptr);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(store->Insert(k, k + 7), Status::kOk);
    }
    // Wait for every shard's idle worker to write its checkpoint file.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (size_t s = 0; s < 2;) {
      const std::string ckpt =
          paths.prefix() + ".shard" + std::to_string(s) + ".ckpt";
      std::ifstream probe(ckpt, std::ios::binary);
      if (probe.good()) {
        ++s;
        continue;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "idle checkpoint for shard " << s << " never appeared";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // Destroyed without CloseClean: a crash with idle checkpoints on disk.
  }
  auto store = api::ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);
  const api::RecoveryReport& report = store->recovery_report();
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(report.shard_source[s], "checkpoint") << "shard " << s;
  }
  uint64_t value = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(store->Search(k, &value), Status::kOk) << k;
    ASSERT_EQ(value, k + 7);
  }
  store->CloseClean();
}

}  // namespace
}  // namespace dash
