// Service-layer quickstart: an in-process reqd server on an ephemeral
// loopback port, three tenants on three engine kinds, and a snapshot
// shipped back through the wire and verified against a local sketch --
// the whole multi-tenant story in one file.
//
// The same traffic works against a standalone daemon:
//   reqd --port 7071 &
//   req-cli --connect 127.0.0.1:7071
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/req_serde.h"
#include "core/req_sketch.h"
#include "service/req_client.h"
#include "service/reqd_server.h"
#include "service/sketch_registry.h"
#include "util/random.h"

int main() {
  using req::service::EngineKind;
  using req::service::MetricSpec;

  // 1. A registry and a server on an ephemeral loopback port.
  req::service::SketchRegistry registry;
  req::service::ReqdServer server(&registry);
  server.Start();
  std::printf("reqd on 127.0.0.1:%u\n", server.port());

  // 2. Three tenants, three engine kinds.
  req::service::ReqClient client;
  client.Connect("127.0.0.1", server.port());

  MetricSpec plain;  // deterministic single sketch
  plain.base.k_base = 64;
  client.Create("checkout.latency_ms", plain);

  // 4 independently seeded sketches, whole batches rotated, merged on
  // query.
  MetricSpec sharded;
  sharded.kind = EngineKind::kSharded;
  sharded.num_shards = 4;
  client.Create("gateway.latency_ms", sharded);

  MetricSpec windowed;  // last ~80k items only
  windowed.kind = EngineKind::kWindowed;
  windowed.num_buckets = 8;
  windowed.bucket_items = 10000;
  client.Create("search.latency_ms", windowed);

  // 3. Traffic: a log-normal-ish latency stream per metric.
  req::util::Xoshiro256 rng(7);
  std::vector<double> batch(1000);
  for (int round = 0; round < 100; ++round) {
    for (double& v : batch) {
      const double g = rng.NextGaussian();
      v = 5.0 * std::exp(0.8 * g) + 0.5;
    }
    client.Append("checkout.latency_ms", batch);
    client.Append("gateway.latency_ms", batch);
    client.Append("search.latency_ms", batch);
  }

  // 4. Served quantiles, one round trip per metric.
  const std::vector<double> qs = {0.5, 0.9, 0.99};
  for (const std::string& metric : *registry.List()) {
    const std::vector<double> q = client.GetQuantiles(metric, qs);
    std::printf("%-22s p50=%6.2f  p90=%6.2f  p99=%6.2f\n", metric.c_str(),
                q[0], q[1], q[2]);
  }

  // 5. Snapshots round-trip through the wire: the plain engine's blob is
  // a byte-exact ReqSerde sketch, deserializable and mergeable anywhere.
  const std::vector<uint8_t> blob =
      client.Snapshot("checkout.latency_ms");
  req::ReqSketch<double> restored = req::DeserializeSketch<double>(
      req::service::SnapshotBlobPayload(blob));
  const double served = client.GetQuantiles("checkout.latency_ms",
                                            {0.99})[0];
  std::printf("snapshot restored: n=%llu, p99 %s\n",
              static_cast<unsigned long long>(restored.n()),
              restored.GetQuantile(0.99) == served ? "matches served"
                                                   : "MISMATCH");

  server.Stop();
  return 0;
}
