// Layer split from outside the program: replays recorded op frames first
// through ShardedStore::SubmitExecute (the api layer: scatter, queue
// hand-off to the shard workers, gather) and then through
// KvIndex::MultiExecute on each owning shard (the table alone, on the
// calling thread). The difference between the two, and between the
// served latency and the first, is the time each layer adds.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "api/sharded_store.h"
#include "harness.h"

namespace perfbench {

struct ReplayResult {
  std::vector<double> submit_us;    // the SubmitExecute call itself
  std::vector<double> complete_us;  // SubmitExecute until the future is ready
  // Table time per frame: the slowest owning shard's MultiExecute, since
  // the shard workers run a frame's parts in parallel.
  std::vector<double> exec_us;
  // Summed table time and ops per op type (frames are homogeneous).
  double ns[4] = {};
  uint64_t ops[4] = {};

  double NsPerOp(dash::api::OpType type) const {
    const size_t t = static_cast<size_t>(type);
    return ops[t] == 0 ? 0 : ns[t] / static_cast<double>(ops[t]);
  }
};

// Called after every execution of a frame (twice per frame: api pass,
// then table pass) with the frame's ops (search results filled in) and
// statuses, so the caller can check them against its model.
using ReplayCheck = std::function<void(size_t frame, const dash::api::Op* ops,
                                       const dash::api::Status* statuses,
                                       size_t count)>;

// Replays `frames` in order. Writes are applied twice with the same
// values, so the store's logical state after the replay is that of
// running each frame once. `request_base` numbers the frames' spans.
void ReplayFrames(dash::api::ShardedStore* store,
                  const std::vector<std::vector<dash::api::Op>>& frames,
                  Tracer& tracer, uint64_t request_base,
                  const ReplayCheck& check, ReplayResult* out);

// Sets the api.* and dash.exec / per-op metrics from a replay.
void ReportReplay(const ReplayResult& replay, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
