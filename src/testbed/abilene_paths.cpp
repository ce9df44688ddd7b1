#include "testbed/abilene_paths.hpp"

namespace lsl::testbed {

using namespace lsl::time_literals;

PathScenario ucsb_uiuc_via_denver() {
  PathScenario s;
  s.name = "ucsb-uiuc-via-denver";
  s.src_depot_delay = 23_ms;  // UCSB <-> Denver RTT 46 ms
  s.depot_dst_delay = SimTime::microseconds(22'500);  // Denver <-> UIUC 45 ms
  s.direct_delay = 35_ms;     // UCSB <-> UIUC RTT 70 ms
  // The lossy segment sits beyond Denver and is shared by the direct path;
  // the UCSB->Denver leg is clean, letting the source race ahead into the
  // depot's 32 MB pipeline (Fig 5's knee).
  s.leg1_loss = 1e-5;
  s.leg2_loss = 5e-4;
  s.direct_loss = 5e-4;
  return s;
}

PathScenario ucsb_uf_via_houston() {
  PathScenario s;
  s.name = "ucsb-uf-via-houston";
  s.src_depot_delay = 34_ms;  // UCSB <-> Houston RTT 68 ms
  s.depot_dst_delay = 17_ms;  // Houston <-> UF RTT 34 ms
  s.direct_delay = SimTime::microseconds(43'500);  // UCSB <-> UF RTT 87 ms
  // Loss shared across the long segment; the short Houston->UF leg is
  // clean. Makes UCSB->Houston the bottleneck (paper: "subpath 2 was able
  // to carry all the load that was presented to it") with equilibrium
  // dominating 64 MB transfers.
  s.leg1_loss = 2.5e-4;
  s.leg2_loss = 1e-4;
  s.direct_loss = 2.5e-4;
  return s;
}

PathTestbed::PathTestbed(const PathScenario& scenario, std::uint64_t seed)
    : harness_(std::make_unique<exp::SimHarness>(seed)) {
  src_ = harness_->add_host("ash.ucsb.edu", "ucsb.edu");
  depot_ = harness_->add_host("depot", "core");
  dst_ = harness_->add_host("destination", "remote.edu");

  const auto link = [&](SimTime delay, double loss) {
    net::LinkConfig cfg;
    cfg.rate = kPathCapacity;
    cfg.propagation_delay = delay;
    cfg.queue_capacity_bytes = kPathQueueBytes;
    cfg.loss_rate = loss;
    return cfg;
  };
  harness_->add_link(src_, depot_,
                     link(scenario.src_depot_delay, scenario.leg1_loss));
  harness_->add_link(depot_, dst_,
                     link(scenario.depot_dst_delay, scenario.leg2_loss));
  harness_->add_link(src_, dst_,
                     link(scenario.direct_delay, scenario.direct_loss));

  session::DepotConfig depot_cfg;
  depot_cfg.tcp = tcp::TcpOptions{}.with_buffers(kDepotKernelBuffer);
  depot_cfg.user_buffer_bytes = scenario.depot_user_buffer;
  harness_->deploy(depot_cfg);

  // Pin the direct route onto the direct link; otherwise shortest-delay
  // routing would send "direct" traffic through the depot's router.
  auto& topo = harness_->topology();
  topo.node(src_).set_route(dst_, topo.link_between(src_, dst_));
  topo.node(dst_).set_route(src_, topo.link_between(dst_, src_));
}

session::TransferSpec PathTestbed::make_spec(bool via_depot,
                                             std::uint64_t bytes) const {
  session::TransferSpec spec;
  spec.dst = dst_;
  if (via_depot) {
    spec.via = {depot_};
  }
  spec.payload_bytes = bytes;
  spec.tcp = tcp::TcpOptions{}.with_buffers(kEndpointBuffer);
  return spec;
}

exp::SimHarness::Handle PathTestbed::launch(bool via_depot,
                                            std::uint64_t bytes) {
  return harness_->launch(src_, make_spec(via_depot, bytes));
}

exp::SimHarness::TransferOutcome PathTestbed::run(bool via_depot,
                                                  std::uint64_t bytes) {
  return harness_->run_transfer(src_, make_spec(via_depot, bytes),
                                SimTime::seconds(3600));
}

}  // namespace lsl::testbed
