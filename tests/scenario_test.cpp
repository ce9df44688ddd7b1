#include <gtest/gtest.h>

#include <string>

#include "exp/scenario.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "sim/tag.hpp"

namespace lsl::exp {
namespace {

using namespace lsl::time_literals;

constexpr const char* kValid = R"(
# a minimal triangle
host a site-a
host d core
host b site-b
link a d rate=100 delay=10 queue=4096 loss=1e-4
link d b rate=100 delay=10 queue=4096 loss=1e-4
link a b rate=100 delay=25 queue=4096 loss=1e-4
depot buffers=1024 user=2048 max_sessions=8
pin a b
transfer a b size=2 buffers=1024
transfer a b size=2 buffers=1024 via=d
)";

TEST(ScenarioParserTest, ParsesValidScenario) {
  const auto result = parse_scenario(kValid);
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& s = *result.scenario;
  EXPECT_EQ(s.hosts.size(), 3u);
  EXPECT_EQ(s.links.size(), 3u);
  EXPECT_EQ(s.pins.size(), 1u);
  EXPECT_EQ(s.transfers.size(), 2u);
  EXPECT_EQ(s.hosts[1].site, "core");
  EXPECT_DOUBLE_EQ(s.links[0].config.rate.megabits_per_second(), 100.0);
  EXPECT_EQ(s.links[0].config.propagation_delay, SimTime::milliseconds(10));
  EXPECT_EQ(s.links[0].config.queue_capacity_bytes, 4096u * 1024u);
  EXPECT_DOUBLE_EQ(s.links[0].config.loss_rate, 1e-4);
  EXPECT_EQ(s.depot.tcp.recv_buffer_bytes, 1024u * 1024u);
  EXPECT_EQ(s.depot.user_buffer_bytes, 2048u * 1024u);
  EXPECT_EQ(s.depot.max_sessions, 8u);
  EXPECT_EQ(s.transfers[0].bytes, 2 * kMiB);
  EXPECT_TRUE(s.transfers[0].via.empty());
  EXPECT_EQ(s.transfers[1].via, (std::vector<net::NodeId>{1}));
}

TEST(ScenarioParserTest, HostsBecomeNodeIdsInDeclarationOrder) {
  // Every host reference resolves to its host's declaration index -- the
  // NodeId run_scenario's harness gives it -- and times become SimTime.
  // References may name hosts in any order; links come after the pin and
  // the fault that use them.
  const auto result = parse_scenario(
      "host a\nhost d site-d\nhost b\nhost e\n"
      "pin b a\n"
      "fault brownout d b at=1.5 for=2 loss=0.1 factor=0.5\n"
      "fault depot-crash e at=3\n"
      "fault link-down e d at=0.25 for=1\n"
      "fault nws-blackout at=4 for=60\n"
      "churn e mtbf=30 mttr=2 start=1 horizon=120\n"
      "churn d\n"
      "link b a rate=10\nlink d b rate=10\nlink a d rate=10\n"
      "link e d rate=10\n"
      "transfer b a size=1 via=e,d\n"
      "transfer e a size=1\n");
  ASSERT_TRUE(result.ok()) << result.error;
  const Scenario& s = *result.scenario;
  ASSERT_EQ(s.hosts.size(), 4u);
  EXPECT_EQ(s.hosts[1].name, "d");
  EXPECT_EQ(s.hosts[1].site, "site-d");
  EXPECT_EQ(s.hosts[3].name, "e");

  ASSERT_EQ(s.links.size(), 4u);
  EXPECT_EQ(std::pair(s.links[0].a, s.links[0].b), std::pair(2u, 0u));
  EXPECT_EQ(std::pair(s.links[1].a, s.links[1].b), std::pair(1u, 2u));
  EXPECT_EQ(std::pair(s.links[3].a, s.links[3].b), std::pair(3u, 1u));
  ASSERT_EQ(s.pins.size(), 1u);
  EXPECT_EQ(s.pins[0], std::pair(2u, 0u));

  ASSERT_EQ(s.faults.faults.size(), 4u);
  const fault::FaultSpec& brownout = s.faults.faults[0];
  EXPECT_EQ(brownout.kind, fault::FaultKind::kLinkBrownout);
  EXPECT_EQ(brownout.link_a, 1u);
  EXPECT_EQ(brownout.link_b, 2u);
  EXPECT_EQ(brownout.node, net::kInvalidNode);
  EXPECT_EQ(brownout.at, 1500_ms);
  EXPECT_EQ(brownout.duration, 2_s);
  EXPECT_DOUBLE_EQ(brownout.loss, 0.1);
  EXPECT_DOUBLE_EQ(brownout.rate_factor, 0.5);
  const fault::FaultSpec& crash = s.faults.faults[1];
  EXPECT_EQ(crash.kind, fault::FaultKind::kDepotCrash);
  EXPECT_EQ(crash.node, 3u);
  EXPECT_EQ(crash.link_a, net::kInvalidNode);
  EXPECT_TRUE(crash.permanent());
  EXPECT_EQ(s.faults.faults[2].link_a, 3u);
  EXPECT_EQ(s.faults.faults[2].link_b, 1u);
  EXPECT_EQ(s.faults.faults[2].at, 250_ms);
  EXPECT_EQ(s.faults.faults[3].kind, fault::FaultKind::kNwsBlackout);
  EXPECT_EQ(s.faults.faults[3].node, net::kInvalidNode);
  EXPECT_EQ(s.faults.faults[3].link_a, net::kInvalidNode);

  ASSERT_EQ(s.churns.size(), 2u);
  EXPECT_EQ(s.churns[0].node, 3u);
  EXPECT_EQ(s.churns[0].mtbf, 30_s);
  EXPECT_EQ(s.churns[0].mttr, 2_s);
  EXPECT_EQ(s.churns[0].start, 1_s);
  EXPECT_EQ(s.churns[0].horizon, 120_s);
  // Unset attributes keep fault::ChurnSpec's defaults.
  EXPECT_EQ(s.churns[1].node, 1u);
  EXPECT_EQ(s.churns[1].mtbf, fault::ChurnSpec{}.mtbf);
  EXPECT_EQ(s.churns[1].horizon, fault::ChurnSpec{}.horizon);

  ASSERT_EQ(s.transfers.size(), 2u);
  EXPECT_EQ(s.transfers[0].src, 2u);
  EXPECT_EQ(s.transfers[0].dst, 0u);
  EXPECT_EQ(s.transfers[0].via, (std::vector<net::NodeId>{3, 1}));
  EXPECT_EQ(s.transfers[1].src, 3u);
  EXPECT_TRUE(s.transfers[1].via.empty());
}

TEST(ScenarioParserTest, SiteDefaultsToHostName) {
  const auto result = parse_scenario(
      "host x\nhost y\nlink x y rate=10\ntransfer x y size=1\n");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.scenario->hosts[0].site, "x");
}

TEST(ScenarioParserTest, CommentsAndBlankLinesIgnored)
{
  const auto result = parse_scenario(
      "# header\n\nhost x # trailing\nhost y\nlink x y rate=10 # fast\n"
      "transfer x y size=1\n");
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST(ScenarioParserTest, PoolDirectiveNeedsNoTopology) {
  const auto result = parse_scenario(
      "pool size=1024 epsilon=0.25 iterations=3 cases=200 sizes=5 "
      "drift=0.1\n");
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_TRUE(result.scenario->pool.has_value());
  EXPECT_EQ(result.scenario->pool->size, 1024u);
  EXPECT_DOUBLE_EQ(result.scenario->pool->epsilon, 0.25);
  EXPECT_EQ(result.scenario->pool->iterations, 3u);
  EXPECT_EQ(result.scenario->pool->max_cases, 200u);
  EXPECT_EQ(result.scenario->pool->max_size_exp, 5);
  EXPECT_DOUBLE_EQ(result.scenario->pool->drift_sigma, 0.1);
}

TEST(ScenarioParserTest, PoolDefaultsAndValidation) {
  const auto defaults = parse_scenario("pool\n");
  ASSERT_TRUE(defaults.ok()) << defaults.error;
  EXPECT_EQ(defaults.scenario->pool->size, 142u);
  EXPECT_LT(defaults.scenario->pool->epsilon, 0.0);  // grid-calibrated

  EXPECT_FALSE(parse_scenario("pool size=1\n").ok());
  EXPECT_FALSE(parse_scenario("pool shape=ring\n").ok());
  // Without a pool, the topology requirements still hold.
  EXPECT_FALSE(parse_scenario("host a\nhost b\n").ok());
}

TEST(ScenarioParserTest, ParsesFidelityDirective) {
  const auto flow = parse_scenario(std::string(kValid) + "fidelity flow\n");
  ASSERT_TRUE(flow.ok()) << flow.error;
  ASSERT_TRUE(flow.scenario->fidelity.has_value());
  EXPECT_EQ(*flow.scenario->fidelity, Fidelity::kFlow);

  const auto packet = parse_scenario(std::string(kValid) + "fidelity packet\n");
  ASSERT_TRUE(packet.ok()) << packet.error;
  ASSERT_TRUE(packet.scenario->fidelity.has_value());
  EXPECT_EQ(*packet.scenario->fidelity, Fidelity::kPacket);

  // Unset means packet for scenarios (analytic for pool sweeps).
  const auto unset = parse_scenario(kValid);
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE(unset.scenario->fidelity.has_value());
}

TEST(ScenarioParserTest, RejectsBadFidelity) {
  EXPECT_FALSE(
      parse_scenario(std::string(kValid) + "fidelity hybrid\n").ok());
  EXPECT_FALSE(parse_scenario(std::string(kValid) + "fidelity\n").ok());
  EXPECT_FALSE(
      parse_scenario(std::string(kValid) + "fidelity flow packet\n").ok());
  // Names are lowercase, and analytic is a pool-sweep fidelity only.
  EXPECT_FALSE(parse_scenario(std::string(kValid) + "fidelity FLOW\n").ok());
  EXPECT_FALSE(
      parse_scenario(std::string(kValid) + "fidelity analytic\n").ok());
}

TEST(ScenarioParserTest, ParsesCcaDirective) {
  const auto cubic = parse_scenario(std::string(kValid) + "cca cubic\n");
  ASSERT_TRUE(cubic.ok()) << cubic.error;
  ASSERT_TRUE(cubic.scenario->cca.has_value());
  EXPECT_EQ(*cubic.scenario->cca, flow::Cca::kCubic);

  const auto bbr = parse_scenario(std::string(kValid) + "cca bbr\n");
  ASSERT_TRUE(bbr.ok()) << bbr.error;
  EXPECT_EQ(*bbr.scenario->cca, flow::Cca::kBbr);

  // Without a directive the option stays unset (NewReno default applies).
  const auto unset = parse_scenario(kValid);
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE(unset.scenario->cca.has_value());
}

TEST(ScenarioParserTest, RejectsBadCca) {
  EXPECT_FALSE(parse_scenario(std::string(kValid) + "cca tahoe\n").ok());
  EXPECT_FALSE(parse_scenario(std::string(kValid) + "cca\n").ok());
  EXPECT_FALSE(
      parse_scenario(std::string(kValid) + "cca cubic bbr\n").ok());
}

TEST(ScenarioParserTest, ParsesLinkPreset) {
  const auto result = parse_scenario(
      "host a\nhost b\nlink a b preset=wan10g\ntransfer a b size=1\n");
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& link = result.scenario->links[0].config;
  EXPECT_DOUBLE_EQ(link.rate.megabits_per_second(), 10000.0);
  EXPECT_EQ(link.propagation_delay, SimTime::milliseconds(80));
  EXPECT_EQ(link.queue_capacity_bytes, 32768u * kKiB);
  EXPECT_DOUBLE_EQ(link.loss_rate, 1e-4);
}

TEST(ScenarioParserTest, LinkPresetAttributesOverrideInOrder) {
  // Later key=value attributes win over the preset's values.
  const auto result = parse_scenario(
      "host a\nhost b\nlink a b preset=wan10g delay=35 loss=5e-5\n"
      "transfer a b size=1\n");
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& link = result.scenario->links[0].config;
  EXPECT_DOUBLE_EQ(link.rate.megabits_per_second(), 10000.0);  // preset
  EXPECT_EQ(link.propagation_delay, SimTime::milliseconds(35));
  EXPECT_DOUBLE_EQ(link.loss_rate, 5e-5);
}

TEST(ScenarioParserTest, RejectsUnknownPreset) {
  const auto result = parse_scenario(
      "host a\nhost b\nlink a b preset=oc768\ntransfer a b size=1\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("oc768"), std::string::npos);
}

TEST(ScenarioParserTest, RejectsUnknownDirective) {
  const auto result = parse_scenario("host a\nhost b\nfrobnicate a b\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("line 3"), std::string::npos);
  EXPECT_NE(result.error.find("frobnicate"), std::string::npos);
}

TEST(ScenarioParserTest, RejectsUnknownHostInLink) {
  const auto result = parse_scenario("host a\nhost b\nlink a zz rate=10\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("zz"), std::string::npos);
}

TEST(ScenarioParserTest, RejectsDuplicateHost) {
  const auto result = parse_scenario("host a\nhost a\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("duplicate"), std::string::npos);
}

TEST(ScenarioParserTest, RejectsBadAttribute) {
  const auto result =
      parse_scenario("host a\nhost b\nlink a b rate=fast\n");
  ASSERT_FALSE(result.ok());
}

TEST(ScenarioParserTest, RejectsUnknownLinkAttribute) {
  const auto result =
      parse_scenario("host a\nhost b\nlink a b color=blue\n");
  ASSERT_FALSE(result.ok());
}

TEST(ScenarioParserTest, RejectsTransferWithoutSize) {
  const auto result = parse_scenario(
      "host a\nhost b\nlink a b rate=10\ntransfer a b\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("size"), std::string::npos);
}

TEST(ScenarioParserTest, RejectsUnknownViaHost) {
  const auto result = parse_scenario(
      "host a\nhost b\nlink a b rate=10\ntransfer a b size=1 via=ghost\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("ghost"), std::string::npos);
}

TEST(ScenarioParserTest, RejectsEmptyTopology) {
  EXPECT_FALSE(parse_scenario("").ok());
  EXPECT_FALSE(parse_scenario("host a\nhost b\n").ok());
}

// Scenario numbers come from outside the program. A value outside its
// attribute's range is a parse error naming the attribute -- not a hang, an
// abort mid-run or an undefined float-to-unsigned cast.
constexpr const char* kPair = "host a\nhost b\nlink a b rate=10\n";

/// Expects `line`, appended to kPair, to fail and name `attribute`.
void expect_rejected(const std::string& line, const std::string& attribute) {
  const auto result = parse_scenario(std::string(kPair) + line);
  ASSERT_FALSE(result.ok()) << line;
  EXPECT_NE(result.error.find("line 4"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find(attribute), std::string::npos) << result.error;
}

TEST(ScenarioRangeTest, RejectsNegativeDelaysAndTimes) {
  expect_rejected("link a b delay=-5\n", "delay");
  expect_rejected("fault link-down a b at=-1\n", "at");
  expect_rejected("fault nws-blackout at=1 for=-2\n", "for");
  expect_rejected("churn a start=-1\n", "start");
  expect_rejected("recovery backoff=-250\n", "backoff");
  expect_rejected("reroute dwell=-3\n", "dwell");
  // Zero is a delay and a time like any other.
  EXPECT_TRUE(parse_scenario(std::string(kPair) +
                             "link a b delay=0\nfault link-down a b at=0\n")
                  .ok());
}

TEST(ScenarioRangeTest, RejectsNonFiniteAndHugeNumbers) {
  for (const std::string value : {"nan", "inf", "-inf", "NaN"}) {
    expect_rejected("link a b rate=" + value + "\n", "rate=" + value);
    expect_rejected("transfer a b size=" + value + "\n", "size=" + value);
  }
  // 1e300 MiB or ms would overflow the integer bytes or nanoseconds.
  expect_rejected("transfer a b size=1e300\n", "size must be at most 1e9");
  expect_rejected("link a b delay=1e300\n", "delay must be at most 1e9");
}

TEST(ScenarioRangeTest, RejectsNonPositiveSizesRatesAndCounts) {
  expect_rejected("transfer a b size=-1\n", "size");
  expect_rejected("pool size=-3\n", "size");
  expect_rejected("link a b rate=0\n", "rate");
  expect_rejected("link a b queue=-8\n", "queue");
  expect_rejected("transfer a b size=1 buffers=0\n", "buffers");
  expect_rejected("depot user=-1\n", "user");
  expect_rejected("depot max_sessions=0\n", "max_sessions");
  expect_rejected("pool cases=0\n", "cases");
  expect_rejected("recovery retries=-1\n", "retries");
}

TEST(ScenarioParserTest, PinsAndLinkFaultsMustNameADeclaredLink) {
  // kPair declares hosts a and b and the link a-b only.
  const std::string kTriple = std::string(kPair) + "host c\n";
  const auto expect_unlinked = [&kTriple](const std::string& line) {
    const auto result = parse_scenario(kTriple + line);
    ASSERT_FALSE(result.ok()) << line;
    EXPECT_NE(result.error.find("line 5"), std::string::npos) << result.error;
    EXPECT_NE(result.error.find("no link between 'a' and 'c'"),
              std::string::npos)
        << result.error;
  };
  expect_unlinked("pin a c\n");
  expect_unlinked("fault link-down a c at=1\n");
  expect_unlinked("fault brownout a c at=1 loss=0.1\n");
  // A host has no link to itself.
  expect_rejected("pin a a\n", "pin names no link between 'a' and 'a'");
  expect_rejected("fault link-down b b at=1\n",
                  "fault link-down names no link between 'b' and 'b'");
  // Either order of the pair names the same link, and a link declared on a
  // later line counts.
  EXPECT_TRUE(parse_scenario(kTriple + "pin b a\nfault link-down c a at=1\n"
                                       "link a c rate=10\n")
                  .ok());
  // Crashes and blackouts name no link.
  EXPECT_TRUE(parse_scenario(kTriple + "fault depot-crash c at=1\n"
                                       "fault nws-blackout at=1\n")
                  .ok());
}

TEST(ScenarioRangeTest, RejectsProbabilitiesOutsideTheUnitInterval) {
  expect_rejected("link a b loss=7\n", "loss");
  expect_rejected("link a b loss=-0.1\n", "loss");
  expect_rejected("fault brownout a b at=1 loss=1.5\n", "loss");
  expect_rejected("recovery jitter=2\n", "jitter");
  expect_rejected("reroute hysteresis=1.2\n", "hysteresis");
  EXPECT_TRUE(
      parse_scenario(std::string(kPair) + "link a b loss=0\nlink a b loss=1\n")
          .ok());
}

TEST(ScenarioRunnerTest, RunsTransfersInOrder) {
  const auto parsed = parse_scenario(kValid);
  ASSERT_TRUE(parsed.ok());
  const auto outcomes = run_scenario(*parsed.scenario, /*seed=*/3);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& [transfer, outcome] : outcomes) {
    EXPECT_TRUE(outcome.completed) << transfer.src << "->" << transfer.dst;
    EXPECT_EQ(outcome.bytes, 2 * kMiB);
  }
  // The relayed transfer (25 ms direct vs 10+10 legs) should not be slower
  // by much; both completed is the hard requirement here.
  EXPECT_GT(outcomes[1].outcome.goodput.bits_per_second(), 0.0);
}

TEST(ScenarioRunnerTest, FlowFidelityCompletesSameTransfers) {
  const auto parsed = parse_scenario(std::string(kValid) + "fidelity flow\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const auto outcomes = run_scenario(*parsed.scenario, /*seed=*/3);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& [transfer, outcome] : outcomes) {
    EXPECT_TRUE(outcome.completed) << transfer.src << "->" << transfer.dst;
    EXPECT_EQ(outcome.bytes, 2 * kMiB);
    EXPECT_GT(outcome.goodput.bits_per_second(), 0.0);
  }
}

TEST(ScenarioRunnerTest, FlowFidelityIsDeterministic) {
  const auto parsed = parse_scenario(std::string(kValid) + "fidelity flow\n");
  ASSERT_TRUE(parsed.ok());
  const auto a = run_scenario(*parsed.scenario, 7);
  const auto b = run_scenario(*parsed.scenario, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome.elapsed, b[i].outcome.elapsed);
  }
}

// A scenarios/high_bdp.lsl-shaped topology at test size: one lossy
// high-BDP hop past the CUBIC crossover RTT, run once per stack via the
// `cca` directive.
constexpr const char* kHighBdp = R"(
host src west
host dst east
link src dst preset=wan10g rate=2000 queue=8192
depot buffers=8192 user=16384
transfer src dst size=64 buffers=8192
)";

TEST(ScenarioRunnerTest, CcaDirectiveSelectsTheStackEndToEnd) {
  const auto reno = parse_scenario(std::string(kHighBdp) + "cca reno\n");
  const auto cubic = parse_scenario(std::string(kHighBdp) + "cca cubic\n");
  ASSERT_TRUE(reno.ok()) << reno.error;
  ASSERT_TRUE(cubic.ok()) << cubic.error;
  const auto reno_out = run_scenario(*reno.scenario, /*seed=*/7);
  const auto cubic_out = run_scenario(*cubic.scenario, /*seed=*/7);
  ASSERT_EQ(reno_out.size(), 1u);
  ASSERT_EQ(cubic_out.size(), 1u);
  ASSERT_TRUE(reno_out[0].outcome.completed);
  ASSERT_TRUE(cubic_out[0].outcome.completed);
  // 160 ms RTT at loss 1e-4 is past the crossover: CUBIC's response
  // function must finish the same transfer sooner than Reno's.
  EXPECT_LT(cubic_out[0].outcome.elapsed, reno_out[0].outcome.elapsed);
}

TEST(ScenarioRunnerTest, DeterministicForSeed) {
  const auto parsed = parse_scenario(kValid);
  ASSERT_TRUE(parsed.ok());
  const auto a = run_scenario(*parsed.scenario, 7);
  const auto b = run_scenario(*parsed.scenario, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome.elapsed, b[i].outcome.elapsed);
  }
}

/// The layer a tag's name puts it in: its first dotted component, except
/// that the fluid data plane's tags (fluid.*, net.fluid.*) are flow's and
/// the depot's store events (depot.*) are lsl's.
std::string layer_by_name(const std::string& name) {
  if (name.starts_with("net.fluid.") || name.starts_with("fluid.")) {
    return "flow";
  }
  if (name.starts_with("depot.")) {
    return "lsl";
  }
  return name.substr(0, name.find('.'));
}

TEST(KernelProfileLayerTest, EveryTagNamesItsLayerAndLayersSumToTagged) {
  // A depot scenario with a crash, churn and recovery schedules events of
  // every packet-plane layer; at flow fidelity the fluid engine's join in.
  const std::string text = std::string(kValid) +
                           "fault depot-crash d at=0.2 for=0.5\n"
                           "churn d mtbf=3 mttr=0.5 start=1 horizon=6\n"
                           "recovery retries=8 stall=1 backoff=100\n";
  for (const char* fidelity : {"packet", "flow"}) {
    const auto parsed =
        parse_scenario(text + "fidelity " + fidelity + "\n");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    sim::KernelProfile profile;
    (void)run_scenario(*parsed.scenario, 7, SimTime::seconds(600), &profile);
    std::uint64_t tagged = 0;
    for (const auto& [name, count] : profile.category_counts) {
      tagged += count;
    }
    std::uint64_t by_layer = 0;
    for (const std::uint64_t count : profile.layer_counts) {
      by_layer += count;
    }
    EXPECT_EQ(by_layer, tagged) << fidelity;
    EXPECT_LE(tagged, profile.events_scheduled) << fidelity;
    EXPECT_GT(profile.layer_counts[static_cast<std::size_t>(sim::Layer::kNet)],
              0u);
    EXPECT_GT(profile.layer_counts[static_cast<std::size_t>(sim::Layer::kTcp)],
              0u);
    EXPECT_GT(
        profile.layer_counts[static_cast<std::size_t>(sim::Layer::kFault)],
        0u);
    EXPECT_NE(profile.str().find("events by layer:"), std::string::npos);
  }
  // Every tag interned in this binary -- each one src/ schedules under,
  // plus any a test made -- carries one of the seven named layers, and
  // the one its name says.
  for (std::size_t id = 1; id < sim::Tag::id_count(); ++id) {
    const sim::Tag tag = sim::Tag::from_id(static_cast<std::uint8_t>(id));
    const std::string layer = sim::to_string(tag.layer());
    EXPECT_EQ(layer, layer_by_name(tag.name())) << tag.name();
  }
  EXPECT_GE(sim::Tag::id_count(), 17u);  // the 16 tags src/ declares
}

TEST(TopologyTruthTest, ReadsTheRoutedLinkAmongParallelOnes) {
  // Two duplex links join a and b (a scenario may repeat a `link` line):
  // the routes take the lower-delay second one, and so must the NWS ground
  // truth, not the first link between the pair.
  sim::Simulator sim;
  net::Topology topo(sim, 1);
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  net::LinkConfig slow;
  slow.rate = Bandwidth::mbps(10);
  slow.propagation_delay = 50_ms;
  net::LinkConfig fast;
  fast.rate = Bandwidth::mbps(100);
  fast.propagation_delay = 5_ms;
  topo.add_duplex_link(a, b, slow);
  const std::size_t fast_ab = topo.add_duplex_link(a, b, fast);
  topo.compute_routes();
  ASSERT_EQ(topo.node(a).route_for(b), &topo.link(fast_ab));

  const nws::TruthFn truth = topology_truth(topo);
  EXPECT_DOUBLE_EQ(truth(a, b).megabits_per_second(), 100.0);
  EXPECT_DOUBLE_EQ(truth(b, a).megabits_per_second(), 100.0);
}

}  // namespace
}  // namespace lsl::exp
