#include "wire.h"

#include <cstdio>

#include "net/kv_client.h"
#include "net/protocol.h"

namespace perfbench {

using dash::api::Op;
using dash::api::Status;

namespace {

constexpr size_t kWindow = 8;

struct InFlight {
  uint64_t id = 0;
  size_t frame = 0;
  uint64_t sent_ns = 0;
  uint32_t span = Tracer::kNone;
};

// The closed loop itself; false on a protocol error.
bool Pipeline(dash::net::KvClient* client,
              const std::vector<std::vector<Op>>& frames, Tracer& tracer,
              uint64_t request_base, const ReplayCheck& check,
              WireResult* out) {
  std::vector<InFlight> in_flight;
  dash::net::ClientResponse response;
  std::vector<Op> ops;
  size_t next = 0;
  while (next < frames.size() || !in_flight.empty()) {
    while (next < frames.size() && in_flight.size() < kWindow) {
      const uint64_t request = request_base + next;
      InFlight f;
      f.frame = next++;
      f.span = tracer.Open("wire.request", request);
      const uint32_t send_span = tracer.Open("net.send", request, f.span);
      f.sent_ns = NowNs();
      const std::vector<Op>& frame = frames[f.frame];
      if (!client->Send(frame.data(), frame.size(), /*deadline_us=*/0,
                        &f.id)) {
        return false;
      }
      out->send_us.push_back(static_cast<double>(NowNs() - f.sent_ns) / 1e3);
      tracer.Close(send_span);
      in_flight.push_back(f);
    }
    if (!client->Receive(&response)) return false;
    const uint64_t now = NowNs();
    size_t at = 0;
    while (at < in_flight.size() && in_flight[at].id != response.request_id) {
      ++at;
    }
    if (at == in_flight.size()) return false;
    const InFlight f = in_flight[at];
    in_flight.erase(in_flight.begin() + static_cast<long>(at));
    ops = frames[f.frame];
    if (response.statuses.size() != ops.size()) return false;
    tracer.Close(f.span);
    out->frame_us.push_back(static_cast<double>(now - f.sent_ns) / 1e3);
    for (size_t i = 0; i < ops.size(); ++i) ops[i].value = response.values[i];
    check(f.frame, ops.data(), response.statuses.data(), ops.size());
  }
  return true;
}

}  // namespace

WireResult ServeFrames(dash::api::ShardedStore* store,
                       const std::string& uds_path,
                       const std::vector<std::vector<Op>>& frames,
                       Tracer& tracer, uint64_t request_base,
                       const ReplayCheck& check, Report* report) {
  WireResult out;
  dash::net::ServerOptions options;
  options.uds_path = uds_path;
  dash::net::KvServer server(store, options);
  std::string error;
  if (!server.Start(&error)) {
    report->Fail("wire: server start: %s", error.c_str());
    return out;
  }
  dash::net::KvClient client;
  if (!client.ConnectUds(uds_path, 0, 1, &error)) {
    report->Fail("wire: connect: %s", error.c_str());
    return out;
  }
  out.ok = Pipeline(&client, frames, tracer, request_base, check, &out);
  if (!out.ok) report->Fail("wire: bad or missing response");
  client.Close();
  server.Stop();
  out.server = server.stats();
  return out;
}

double CodecNs() {
  constexpr size_t kOps = 16;
  constexpr int kIters = 20000;
  Op ops[kOps];
  Status statuses[kOps];
  uint64_t values[kOps];
  for (size_t i = 0; i < kOps; ++i) {
    ops[i] = Op::Search(i + 1);
    statuses[i] = Status::kOk;
    values[i] = EncodeValue(i + 1, 0);
  }
  std::vector<uint8_t> buf;
  buf.reserve(1024);
  uint64_t sink = 0;
  std::vector<double> block_ns;
  for (int b = 0; b < 7; ++b) {
    const uint64_t t0 = NowNs();
    for (int it = 0; it < kIters; ++it) {
      dash::net::Frame frame;
      size_t consumed = 0;
      buf.clear();
      dash::net::AppendRequest(&buf, it, ops, kOps, 0);
      dash::net::DecodeFrame(buf.data(), buf.size(), &frame, &consumed);
      dash::net::RequestView request;
      dash::net::ParseRequest(frame, &request);
      for (size_t i = 0; i < request.count; ++i) {
        Op op;
        dash::net::DecodeRequestOp(request, i, &op);
        sink += op.key;
      }
      buf.clear();
      dash::net::AppendResponse(&buf, it, statuses, values, kOps, 0);
      dash::net::DecodeFrame(buf.data(), buf.size(), &frame, &consumed);
      dash::net::ResponseView response;
      dash::net::ParseResponse(frame, &response);
      for (size_t i = 0; i < response.count; ++i) {
        Status st;
        uint64_t v = 0;
        dash::net::DecodeResponseEntry(response, i, &st, &v);
        sink += v;
      }
    }
    block_ns.push_back(static_cast<double>(NowNs() - t0) / kIters);
  }
  if (sink == 42) std::fputc(' ', stderr);  // keeps the decoded values live
  return Median(block_ns);
}

}  // namespace perfbench
