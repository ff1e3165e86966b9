#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "pmem/stats.h"
#include "util/amac.h"

namespace perfbench {

void Report::Fail(const char* fmt, ...) {
  correct = false;
  std::va_list args;
  va_start(args, fmt);
  std::fputs("perfbench: check failed: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tracer::Tracer(bool enabled, size_t capacity)
    : enabled_(enabled), capacity_(capacity) {
  if (enabled_) spans_.reserve(capacity_);
}

uint32_t Tracer::Open(const char* name, uint64_t request, uint32_t parent) {
  if (!enabled_) return kNone;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kNone;
  }
  const uint64_t now = NowNs();
  spans_.push_back({name, request, parent, now, now});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::Close(uint32_t id) {
  if (id == kNone) return;
  spans_[id].end_ns = NowNs();
}

std::vector<uint64_t> Tracer::SelfNs() const {
  std::vector<uint64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) covered[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<uint64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    self[i] = dur > covered[i] ? dur - covered[i] : 0;
  }
  return self;
}

std::vector<Tracer::SelfTime> Tracer::SelfTimes() const {
  const std::vector<uint64_t> self = SelfNs();
  std::map<std::string, std::vector<double>> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name].push_back(static_cast<double>(self[i]) / 1e3);
  }
  std::vector<SelfTime> out;
  for (auto& [name, us] : by_name) {
    const uint64_t count = us.size();
    out.push_back({name, Median(std::move(us)), count});
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  const std::vector<uint64_t> self = SelfNs();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("id,name,request,parent,start_ns,end_ns,self_ns\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%llu,%lld,%llu,%llu,%llu\n", i, s.name,
                 static_cast<unsigned long long>(s.request),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

bool StealProbe::Read(Sample* sample) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t f[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return false;
  for (uint64_t& v : f) {
    if (!(in >> v)) return false;
  }
  // user nice system idle iowait irq softirq steal
  sample->iowait = f[4];
  sample->steal = f[7];
  sample->total = 0;
  for (uint64_t v : f) sample->total += v;
  return true;
}

void StealProbe::Start() { ok_ = Read(&start_); }

double StealProbe::Pct(uint64_t Sample::*field) const {
  Sample now;
  if (!ok_ || !Read(&now) || now.total <= start_.total) return 0;
  return 100.0 * static_cast<double>(now.*field - start_.*field) /
         static_cast<double>(now.total - start_.total);
}

double MeasureSpinNs(uint32_t setting_ns, int calls_per_block) {
  constexpr int kBlocks = 7;
  dash::pmem::SpinNanos(setting_ns);  // the first call calibrates
  std::vector<double> per_call;
  for (int b = 0; b < kBlocks; ++b) {
    const uint64_t start = NowNs();
    for (int i = 0; i < calls_per_block; ++i) {
      dash::pmem::SpinNanos(setting_ns);
    }
    per_call.push_back(static_cast<double>(NowNs() - start) /
                       calls_per_block);
  }
  return Median(std::move(per_call));
}

void RecordHost(const StealProbe& steal, Report* report) {
  report->Set("host.steal_pct", steal.StealPct(), "%");
  report->Set("host.iowait_pct", steal.IowaitPct(), "%");
  report->Set("pmem.spin_ns", MeasureSpinNs(300), "ns");
}

void ResetOpCounts() {
  dash::pmem::ResetPmStats();
  dash::util::AmacTelemetry::DrainAll();
}

OpCounts TakeOpCounts(uint64_t ops) {
  const dash::pmem::PmStats pm = dash::pmem::AggregatePmStats();
  const dash::util::AmacTelemetry amac = dash::util::AmacTelemetry::DrainAll();
  const double n = ops == 0 ? 1 : static_cast<double>(ops);
  OpCounts c;
  c.read_probes = static_cast<double>(pm.read_probes) / n;
  c.clwb = static_cast<double>(pm.clwb) / n;
  c.fence = static_cast<double>(pm.fence) / n;
  c.nt_stores = static_cast<double>(pm.nt_stores) / n;
  c.amac_steps = static_cast<double>(amac.steps) / n;
  c.amac_suspends = static_cast<double>(amac.TotalSuspends()) / n;
  c.amac_retry = static_cast<double>(
                     amac.suspends[static_cast<size_t>(
                         dash::util::AmacState::kRetry)]) /
                 n;
  return c;
}

void ReportOpCounts(const OpCounts& c, Report* report) {
  report->Set("pmem.read_probes_per_op", c.read_probes, "count");
  report->Set("pmem.clwb_per_op", c.clwb, "count");
  report->Set("pmem.fence_per_op", c.fence, "count");
  report->Set("pmem.nt_stores_per_op", c.nt_stores, "count");
  report->Set("amac.steps_per_op", c.amac_steps, "count");
  report->Set("amac.suspends_per_op", c.amac_suspends, "count");
  report->Set("amac.retry_per_op", c.amac_retry, "count");
}

void ReportSetup(const std::vector<double>& setup_s, Report* report) {
  std::fputs("perfbench: set-up times (s):", stderr);
  for (double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fputc('\n', stderr);
  report->Set("setup_s", Median(setup_s), "s");
}

void ClearDir(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::filesystem::remove(entry.path(), ec);
  }
}

}  // namespace perfbench
