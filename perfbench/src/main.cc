// perfbench: runs one workload and prints one JSON object on stdout:
//   {"correct":bool,"attempted":n,"failed":n,"values":{name:{value,unit}}}
// run.py picks the end-to-end or per-layer metrics out of "values".
//
// Usage: perfbench --workload embed-write|restart --seed N
//                  --seconds S --trace 0|1 --dir WORKDIR [--trace-out CSV]

#include <sched.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "pmem/stats.h"
#include "workloads.h"

namespace perfbench {

void WriteTrace(const RunConfig& config, const Tracer& tracer,
                Report* report) {
  report->Set("trace.spans", static_cast<double>(tracer.size()), "count");
  report->Set("trace.dropped", static_cast<double>(tracer.dropped()), "count");
  for (const Tracer::SelfTime& s : tracer.SelfTimes()) {
    report->Set("self." + s.name + "_us", s.p50_us, "us");
  }
  if (!config.trace_out.empty() && !tracer.WriteCsv(config.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 config.trace_out.c_str());
  }
}

namespace {

struct WorkloadInfo {
  const char* name;
  int threads;
  void (*run)(const RunConfig&, Report*);
};

constexpr WorkloadInfo kWorkloads[] = {
    {"embed-write", 1, RunEmbedWrite},
    // caller, 2 shard workers, and an event loop in traced rounds
    {"restart", 4, RunRestart},
};

// Pins the calling thread to the highest-numbered CPU it may run on;
// returns that CPU, or -1.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

void PrintNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::fwrite(buf, 1, static_cast<size_t>(res.ptr - buf), stdout);
}

int Main(int argc, char** argv) {
  RunConfig config;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      config.workload = v;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--dir") {
      config.dir = v;
    } else if (flag == "--trace-out") {
      config.trace_out = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (config.seconds < 1 || config.seconds > 60 || (trace != 0 && trace != 1) ||
      config.dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds 1..60 "
                 "--trace 0|1 --dir WORKDIR [--trace-out CSV]\n");
    return 2;
  }
  config.trace = trace == 1;
  const WorkloadInfo* workload = nullptr;
  for (const WorkloadInfo& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 config.workload.c_str());
    return 2;
  }
  const int nproc = OnlineCpus();
  if (workload->threads > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s runs %d threads but only %d CPUs are "
                 "online; refusing an oversubscribed configuration\n",
                 workload->name, workload->threads, nproc);
    return 3;
  }
  // Every workload runs on one CPU. On a shared VM, keeping several
  // vCPUs busy draws hypervisor steal (10-20% measured with all four in
  // use, about 1% with one) and stalls cross-vCPU wake-ups for hundreds
  // of microseconds, which made served throughput swing 5x between runs;
  // on one CPU the same runs agree to about a tenth. Threads created
  // later inherit the mask.
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::perror("perfbench: sched_setaffinity");
    return 3;
  }
  // Emulation is set per workload in code; DASH_PM_* in the environment
  // must not leak into the served or restart numbers.
  dash::pmem::GetEmulationConfig().read_latency_ns.store(0);
  dash::pmem::GetEmulationConfig().flush_latency_ns.store(0);

  Report report;
  report.Set("host.nproc", nproc, "count");
  report.Set("host.threads", workload->threads, "count");
  report.Set("host.cpu", cpu, "count");
  workload->run(config, &report);

  bool correct = report.correct && report.failed == 0;
  std::printf("{\"values\":{");
  bool first = true;
  for (const auto& [name, v] : report.values) {
    if (!std::isfinite(v.value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", name.c_str());
      correct = false;
      continue;
    }
    std::printf("%s\"%s\":{\"value\":", first ? "" : ",", name.c_str());
    PrintNumber(v.value);
    std::printf(",\"unit\":\"%s\"}", v.unit.c_str());
    first = false;
  }
  std::printf("},\"correct\":%s,\"attempted\":%llu,\"failed\":%llu}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
