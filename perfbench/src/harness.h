// Shared pieces of the benchmark: the run configuration, the result
// report, statistics, the span tracer, and host-noise probes.
//
// Every workload times only public entry points of the library (net,
// api, dash, hybrid, pmem, util/amac). Spans are recorded here, in the
// benchmark's own code, around those calls; nothing inside the library
// is instrumented.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Work directory for pool files and the UDS socket (relative to the
  // working directory, so socket paths stay short).
  std::string dir;
  // Where the traced run writes its spans (CSV).
  std::string trace_out;
};

// Keys are at most 24 bits wide in every workload, so a value can carry
// the key and a write version: the model checks both on every read.
inline uint64_t EncodeValue(uint64_t key, uint64_t version) {
  return (version << 24) | key;
}
inline uint64_t ValueKey(uint64_t value) { return value & 0xFFFFFF; }
inline uint64_t ValueVersion(uint64_t value) { return value >> 24; }

// What one run reports. Workloads Set() every value they measure; the
// main (main.cc) prints the end-to-end or per-layer set as the result
// line's "metrics" and everything else on a diagnostics line before it.
struct Report {
  struct Value {
    double value = 0;
    std::string unit;
  };

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Value> values;

  void Set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
  // Marks the run incorrect and says why on stderr.
  void Fail(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

// Linear-interpolated percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// In-memory span recorder. Open() stamps the start and returns the span's
// id; Close() stamps the end. Spans of one request share `request`, and
// `parent` links a span to the one that caused it. Disabled tracers
// record nothing (Open returns kNone), so untraced runs pay one branch.
class Tracer {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  explicit Tracer(bool enabled, size_t capacity = 4u << 20);

  bool enabled() const { return enabled_; }
  uint32_t Open(const char* name, uint64_t request, uint32_t parent = kNone);
  void Close(uint32_t id);
  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  // Self time of each span (duration minus the time its children cover),
  // summarized per span name as the p50 in microseconds.
  struct SelfTime {
    std::string name;
    double p50_us = 0;
    uint64_t count = 0;
  };
  std::vector<SelfTime> SelfTimes() const;

  // Writes every span as CSV (id,name,request,parent,start_ns,end_ns,
  // self_ns). Returns false on an I/O error.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t request;
    uint32_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  std::vector<uint64_t> SelfNs() const;

  bool enabled_;
  size_t capacity_;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request,
             uint32_t parent = Tracer::kNone)
      : tracer_(tracer), id_(tracer.Open(name, request, parent)) {}
  ~ScopedSpan() { tracer_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint32_t id_;
};

// CPUs this process may run on (what `nproc` prints).
int OnlineCpus();

// Steal and I/O-wait time from /proc/stat deltas: Start() before the
// measured phase, StealPct()/IowaitPct() after it. Report 0 where
// /proc/stat is unreadable.
class StealProbe {
 public:
  void Start();
  double StealPct() const { return Pct(&Sample::steal); }
  double IowaitPct() const { return Pct(&Sample::iowait); }

 private:
  struct Sample {
    uint64_t steal = 0;
    uint64_t iowait = 0;
    uint64_t total = 0;
  };
  static bool Read(Sample* sample);
  double Pct(uint64_t Sample::*field) const;
  Sample start_;
  bool ok_ = false;
};

// The delay pmem::SpinNanos actually delivers for `setting_ns`, in ns
// per call (median of 7 blocks of `calls_per_block` calls). The spin is
// calibrated once per process and runs at the host's current speed, so
// this drifts.
double MeasureSpinNs(uint32_t setting_ns, int calls_per_block = 20000);

// Records the host's steal and I/O-wait time over the measured phase (the
// pools are files in the work directory) and the delay the PM-emulation
// spin delivers for a 300 ns setting (its calibration drift).
void RecordHost(const StealProbe& steal, Report* report);

// Per-op PM traffic (pmem) and AMAC scheduling (util/amac) counts over a
// phase: ResetOpCounts() at its start, TakeOpCounts(ops) at its end. Only
// valid while no batch is executing (the AMAC counters are per-thread
// and unsynchronized). With one thread and a seeded stream these repeat
// exactly run to run.
struct OpCounts {
  double read_probes = 0;
  double clwb = 0;
  double fence = 0;
  double nt_stores = 0;
  double amac_steps = 0;
  double amac_suspends = 0;
  double amac_retry = 0;

  bool operator==(const OpCounts&) const = default;
};
void ResetOpCounts();
OpCounts TakeOpCounts(uint64_t ops);
void ReportOpCounts(const OpCounts& counts, Report* report);

// Inserts keys [1, count] with version-0 values through `target`'s
// MultiInsert (a KvIndex or a ShardedStore). Returns false, with the
// report failed, on any status other than kOk.
template <typename Target>
bool Preload(Target* target, uint64_t count, Report* report) {
  constexpr size_t kBatch = 1024;
  std::vector<uint64_t> keys(kBatch), values(kBatch);
  std::vector<dash::api::Status> statuses(kBatch);
  for (uint64_t at = 1; at <= count; at += kBatch) {
    const size_t n = std::min<uint64_t>(kBatch, count + 1 - at);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = at + i;
      values[i] = EncodeValue(at + i, 0);
    }
    target->MultiInsert(keys.data(), values.data(), n, statuses.data());
    for (size_t i = 0; i < n; ++i) {
      if (statuses[i] != dash::api::Status::kOk) {
        report->Fail("preload of key %llu: %s",
                     static_cast<unsigned long long>(keys[i]),
                     dash::api::StatusName(statuses[i]));
        return false;
      }
    }
  }
  return true;
}

// Sets setup_s to the median of the run's set-up times (logging each).
void ReportSetup(const std::vector<double>& setup_s, Report* report);

// Removes every file in `dir` (not recursing); used between set-ups.
void ClearDir(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
