// The net layer, measured from restart's traced rounds: recorded read
// frames are served over the wire (KvClient -> KvServer over a Unix-domain
// socket -> the open ShardedStore), eight frames in flight on one
// connection, and the frame codec is timed on its own.

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <string>
#include <vector>

#include "api/sharded_store.h"
#include "harness.h"
#include "net/kv_server.h"
#include "replay.h"

namespace perfbench {

struct WireResult {
  bool ok = false;
  std::vector<double> frame_us;  // send until the response, per frame
  std::vector<double> send_us;   // the KvClient::Send call
  dash::net::ServerStats server;
};

// Starts a KvServer on `store` at `uds_path`, sends `frames` with eight in
// flight, hands each response to `check` (statuses and search results),
// then stops the server. Frames of one request share a span id.
WireResult ServeFrames(dash::api::ShardedStore* store,
                       const std::string& uds_path,
                       const std::vector<std::vector<dash::api::Op>>& frames,
                       Tracer& tracer, uint64_t request_base,
                       const ReplayCheck& check, Report* report);

// AppendRequest + ParseRequest + AppendResponse + ParseResponse on one
// 16-op frame, in ns per round trip (median of repeated blocks).
double CodecNs();

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
