#include "replay.h"

#include <algorithm>

namespace perfbench {

using dash::api::Op;
using dash::api::OpType;
using dash::api::Status;

void ReplayFrames(dash::api::ShardedStore* store,
                  const std::vector<std::vector<Op>>& frames, Tracer& tracer,
                  uint64_t request_base, const ReplayCheck& check,
                  ReplayResult* out) {
  const size_t shards = store->shard_count();
  std::vector<Op> ops;
  std::vector<Status> statuses;
  std::vector<std::vector<Op>> part(shards);
  std::vector<std::vector<size_t>> origin(shards);
  std::vector<Status> part_status;
  for (size_t f = 0; f < frames.size(); ++f) {
    const uint64_t request = request_base + f;
    const ScopedSpan frame_span(tracer, "replay.frame", request);

    // api layer: scatter, enqueue, shard workers, gather.
    ops = frames[f];
    statuses.assign(ops.size(), Status::kInternal);
    const uint32_t complete_span =
        tracer.Open("api.complete", request, frame_span.id());
    const uint32_t submit_span =
        tracer.Open("api.submit", request, complete_span);
    const uint64_t t0 = NowNs();
    dash::api::BatchFuture future =
        store->SubmitExecute(ops.data(), ops.size(), statuses.data());
    const uint64_t t1 = NowNs();
    tracer.Close(submit_span);
    future.Wait();
    const uint64_t t2 = NowNs();
    tracer.Close(complete_span);
    out->submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    out->complete_us.push_back(static_cast<double>(t2 - t0) / 1e3);
    check(f, ops.data(), statuses.data(), ops.size());

    // Table alone: each owning shard's MultiExecute on this thread.
    for (size_t s = 0; s < shards; ++s) {
      part[s].clear();
      origin[s].clear();
    }
    ops = frames[f];
    for (size_t i = 0; i < ops.size(); ++i) {
      const size_t s = store->ShardOf(ops[i].key);
      part[s].push_back(ops[i]);
      origin[s].push_back(i);
    }
    uint64_t slowest = 0;
    uint64_t total = 0;
    for (size_t s = 0; s < shards; ++s) {
      if (part[s].empty()) continue;
      part_status.assign(part[s].size(), Status::kInternal);
      const uint32_t exec_span =
          tracer.Open("dash.exec", request, frame_span.id());
      const uint64_t e0 = NowNs();
      store->shard(s)->MultiExecute(part[s].data(), part[s].size(),
                                    part_status.data());
      const uint64_t e1 = NowNs();
      tracer.Close(exec_span);
      slowest = std::max(slowest, e1 - e0);
      total += e1 - e0;
      for (size_t j = 0; j < part[s].size(); ++j) {
        ops[origin[s][j]] = part[s][j];
        statuses[origin[s][j]] = part_status[j];
      }
    }
    out->exec_us.push_back(static_cast<double>(slowest) / 1e3);
    const size_t type = static_cast<size_t>(frames[f][0].type);
    out->ns[type] += static_cast<double>(total);
    out->ops[type] += ops.size();
    check(f, ops.data(), statuses.data(), ops.size());
  }
}

void ReportReplay(const ReplayResult& replay, Report* report) {
  const double complete = Median(replay.complete_us);
  const double exec = Median(replay.exec_us);
  report->Set("api.submit_us", Median(replay.submit_us), "us");
  report->Set("api.complete_p50_us", complete, "us");
  report->Set("api.queue_wait_us", complete - exec, "us");
  report->Set("dash.exec_p50_us", exec, "us");
  report->Set("dash.search_ns_per_op", replay.NsPerOp(OpType::kSearch), "ns");
  report->Set("dash.insert_ns_per_op", replay.NsPerOp(OpType::kInsert), "ns");
  report->Set("dash.update_ns_per_op", replay.NsPerOp(OpType::kUpdate), "ns");
}

}  // namespace perfbench
