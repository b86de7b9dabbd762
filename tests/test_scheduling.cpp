// Tests of the two scheduling backends: soa (the structure-of-arrays fast
// path) against full (the reference), bit-identical across routing x
// VC-policy x topology under uniform and adversarial traffic and over the
// memory- and compute-bound GPU design space; the retired backend
// names parsing as soa aliases; snapshot round-trips through the SoA plane
// converter; deadlock watchdog parity; scheduler-coverage auditing of the
// SoA planes; the idle-cost floor; and the route-LUT fast path agreeing
// with the analytic routing function.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/serialize.hpp"
#include "noc/audit.hpp"
#include "noc/network.hpp"
#include "noc/placement.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "noc/vc_policy.hpp"
#include "sim/experiment.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

// --- mode plumbing ---------------------------------------------------------

TEST(SchedulingModeTest, NamesRoundTrip) {
  EXPECT_STREQ(SchedulingModeName(SchedulingMode::kFull), "full");
  EXPECT_EQ(ParseSchedulingMode("full"), SchedulingMode::kFull);
  EXPECT_EQ(ParseSchedulingMode("FULL"), SchedulingMode::kFull);
  EXPECT_THROW(ParseSchedulingMode("lazy"), std::invalid_argument);
}

// Every name that selects soa. The names of the retired active-set and
// event backends stay parseable, so old job specs and command lines run —
// on soa, which gives the same results — while kSoa still prints as "soa".
// The enum values hashed into config fingerprints do not move.
TEST(SoaModeTest, NamesRoundTrip) {
  EXPECT_STREQ(SchedulingModeName(SchedulingMode::kSoa), "soa");
  EXPECT_EQ(ParseSchedulingMode("soa"), SchedulingMode::kSoa);
  EXPECT_EQ(ParseSchedulingMode("SOA"), SchedulingMode::kSoa);
  EXPECT_EQ(ParseSchedulingMode("event"), SchedulingMode::kSoa);
  EXPECT_EQ(ParseSchedulingMode("active-set"), SchedulingMode::kSoa);
  EXPECT_EQ(ParseSchedulingMode("ACTIVE"), SchedulingMode::kSoa);
  EXPECT_EQ(static_cast<int>(SchedulingMode::kFull), 0);
  EXPECT_EQ(static_cast<int>(SchedulingMode::kSoa), 3);
}

// A zero dynamic epoch would spin the router/NIC boundary catch-up loops
// forever; the network must refuse it up front with an actionable error.
TEST(SchedulingModeTest, RejectsZeroDynamicEpoch) {
  NetworkConfig cfg;
  cfg.vc_policy = VcPolicyKind::kDynamic;
  cfg.dynamic_epoch = 0;
  EXPECT_THROW(Network net(cfg), std::invalid_argument);
  // Irrelevant for static policies: the loops never run.
  cfg.vc_policy = VcPolicyKind::kSplit;
  EXPECT_NO_THROW(Network net(cfg));
}

// --- bit identity, network level -------------------------------------------

// Serializes everything observable about a finished network run: summary
// counters, per-class latency moments, audit counters and the full
// telemetry CSV. Two runs are "bit-identical" iff these strings match.
std::string NetworkFingerprint(
    NetworkConfig cfg, SchedulingMode mode, double injection_rate,
    TrafficPattern pattern = TrafficPattern::kUniformRandom) {
  cfg.scheduling = mode;
  cfg.audit = true;
  cfg.audit_interval = 4;
  cfg.telemetry = true;
  cfg.telemetry_interval = 50;
  Network net(cfg);
  OpenLoopConfig tcfg;
  tcfg.pattern = pattern;
  tcfg.injection_rate = injection_rate;
  tcfg.packet_size = 4;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 1200; ++c) {
    traffic.Tick();
    net.Tick();
  }
  const bool drained = net.Drain(10000);

  std::ostringstream out;
  out.precision(17);
  out << "drained=" << drained << " deadlocked=" << net.Deadlocked()
      << " now=" << net.now() << " in_flight=" << net.FlitsInFlight()
      << " generated=" << traffic.generated()
      << " dropped=" << traffic.dropped() << '\n';
  const NetworkSummary s = net.Summarize();
  for (int c = 0; c < kNumClasses; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    out << "class " << c << ": pkts " << s.packets_injected[ci] << '/'
        << s.packets_ejected[ci] << " flits " << s.flits_injected[ci] << '/'
        << s.flits_ejected[ci] << " plat " << s.packet_latency[ci].count()
        << ' ' << s.packet_latency[ci].mean() << ' '
        << s.packet_latency[ci].max() << " nlat "
        << s.network_latency[ci].count() << ' '
        << s.network_latency[ci].mean() << '\n';
  }
  out << "forwarded=" << s.flits_forwarded << '\n';
  const AuditReport r = net.AuditResults();
  out << "audit checks=" << r.checks << " events=" << r.events
      << " violations=" << r.violations << " inj=" << r.flits_injected
      << " ej=" << r.flits_ejected << '\n';
  net.TelemetryResults().WriteCsv(out);
  return out.str();
}

// kFull and kSoa must agree bit-for-bit — stats, audit counters and
// telemetry windows — for every routing x VC-policy combination, with the
// auditor and telemetry sampler running in both modes.
TEST(SchedulingBitIdentityTest, OpenLoopMatrixMatchesFullMode) {
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  const VcPolicyKind policies[] = {VcPolicyKind::kSplit,
                                   VcPolicyKind::kAsymmetric,
                                   VcPolicyKind::kDynamic};
  for (RoutingAlgorithm routing : routings) {
    for (VcPolicyKind policy : policies) {
      NetworkConfig cfg;
      cfg.width = 4;
      cfg.height = 4;
      cfg.num_vcs = 4;
      cfg.vc_depth = 4;
      cfg.routing = routing;
      cfg.vc_policy = policy;
      cfg.dynamic_epoch = 64;
      EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.1),
                NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.1))
          << RoutingName(routing) << "/" << VcPolicyName(policy);
    }
  }
}

// The equivalence must also hold on the non-mesh topologies: wrap links
// (dateline VC halves in the SoA VA replica), concentration (multiple
// local ports per router) and circulant skip links all change the plane
// geometry.
TEST(SchedulingBitIdentityTest, TopologyMatrixMatchesFullMode) {
  const TopologyKind topologies[] = {TopologyKind::kTorus,
                                     TopologyKind::kCMesh,
                                     TopologyKind::kCirculant};
  for (TopologyKind topology : topologies) {
    NetworkConfig cfg;
    cfg.topology = topology;
    cfg.width = 4;
    cfg.height = 4;
    cfg.num_vcs = 4;
    cfg.vc_depth = 4;
    const std::string label = TopologyName(topology);
    EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.1),
              NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.1))
        << label;
  }
}

// Near saturation almost every VC is occupied, so the eligibility planes
// are dense and the skip heuristics almost never fire — the opposite
// regime from the sparse matrix above.
TEST(SchedulingBitIdentityTest, HighLoadMatchesFullMode) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  cfg.vc_depth = 4;
  EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.4),
            NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.4));
}

// The same three regimes under adversarial permutation traffic instead of
// uniform random: every source hammers one fixed destination, so a few
// links and VCs stay saturated while the rest of the mesh idles — the mix
// where soa skips most routers but must still wake exactly the busy ones.

// Four ways to ask for a run: full, and soa under its own name and under
// the two retired backend names that now select it. All four must agree
// bit-for-bit over routing x VC policy under transpose traffic.
TEST(SoaBitIdentityTest, FourWayOpenLoopMatrixAgrees) {
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  const VcPolicyKind policies[] = {VcPolicyKind::kSplit,
                                   VcPolicyKind::kAsymmetric,
                                   VcPolicyKind::kDynamic};
  for (RoutingAlgorithm routing : routings) {
    for (VcPolicyKind policy : policies) {
      NetworkConfig cfg;
      cfg.width = 4;
      cfg.height = 4;
      cfg.num_vcs = 4;
      cfg.vc_depth = 4;
      cfg.routing = routing;
      cfg.vc_policy = policy;
      cfg.dynamic_epoch = 64;
      const std::string label =
          std::string(RoutingName(routing)) + "/" + VcPolicyName(policy);
      const std::string full = NetworkFingerprint(
          cfg, SchedulingMode::kFull, 0.1, TrafficPattern::kTranspose);
      for (const char* name : {"soa", "active-set", "event"}) {
        EXPECT_EQ(full,
                  NetworkFingerprint(cfg, ParseSchedulingMode(name), 0.1,
                                     TrafficPattern::kTranspose))
            << label << " scheduling=" << name;
      }
    }
  }
}

// Tornado traffic sends every packet half-way round its row: on the torus
// each one crosses the dateline, on the circulant it rides the skip links.
TEST(SoaBitIdentityTest, TopologyMatrixMatchesFullMode) {
  const TopologyKind topologies[] = {TopologyKind::kMesh, TopologyKind::kTorus,
                                     TopologyKind::kCMesh,
                                     TopologyKind::kCirculant};
  for (TopologyKind topology : topologies) {
    NetworkConfig cfg;
    cfg.topology = topology;
    cfg.width = 4;
    cfg.height = 4;
    cfg.num_vcs = 4;
    cfg.vc_depth = 4;
    EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.1,
                                 TrafficPattern::kTornado),
              NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.1,
                                 TrafficPattern::kTornado))
        << TopologyName(topology);
  }
}

// Bit-reverse traffic past saturation on an 8x8 mesh: deep queues behind
// the bisection links while the corners drain, with enough routers that
// the skip lists are long.
TEST(SoaBitIdentityTest, HighLoadMatchesFullMode) {
  NetworkConfig cfg;
  cfg.width = 8;
  cfg.height = 8;
  cfg.num_vcs = 4;
  cfg.vc_depth = 4;
  EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.4,
                               TrafficPattern::kBitReverse),
            NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.4,
                               TrafficPattern::kBitReverse));
}

// --- bit identity, full GPU model ------------------------------------------

void ExpectRunsEqual(const GpuRunStats& a, const GpuRunStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.ipc, b.ipc) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.instructions, b.instructions) << label;
  EXPECT_EQ(a.packets_by_type, b.packets_by_type) << label;
  EXPECT_EQ(a.request_flits, b.request_flits) << label;
  EXPECT_EQ(a.reply_flits, b.reply_flits) << label;
  EXPECT_EQ(a.l2_miss_rate, b.l2_miss_rate) << label;
  EXPECT_EQ(a.dram_row_hit_rate, b.dram_row_hit_rate) << label;
  EXPECT_EQ(a.avg_read_latency, b.avg_read_latency) << label;
  EXPECT_EQ(a.deadlocked, b.deadlocked) << label;
  EXPECT_EQ(a.network.flits_forwarded, b.network.flits_forwarded) << label;
  for (int c = 0; c < kNumClasses; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    EXPECT_EQ(a.network.packets_ejected[ci], b.network.packets_ejected[ci])
        << label;
    EXPECT_EQ(a.network.packet_latency[ci].count(),
              b.network.packet_latency[ci].count())
        << label;
    EXPECT_EQ(a.network.packet_latency[ci].mean(),
              b.network.packet_latency[ci].mean())
        << label;
  }
  EXPECT_EQ(a.audit.checks, b.audit.checks) << label;
  EXPECT_EQ(a.audit.events, b.audit.events) << label;
  EXPECT_EQ(a.audit.violations, b.audit.violations) << label;
  std::ostringstream ta;
  std::ostringstream tb;
  a.telemetry.WriteCsv(ta);
  b.telemetry.WriteCsv(tb);
  EXPECT_EQ(ta.str(), tb.str()) << label;
}

// Runs every deadlock-safe VC policy x routing x placement combination of
// the full GPU model on `workload` under full and under soa, with the
// auditor and telemetry enabled, expects identical results and returns the
// number of combinations compared.
int CompareGpuDesignSpace(const char* workload) {
  const VcPolicyKind policies[] = {
      VcPolicyKind::kSplit, VcPolicyKind::kFullMonopolize,
      VcPolicyKind::kPartialMonopolize, VcPolicyKind::kAsymmetric,
      VcPolicyKind::kDynamic};
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  int compared = 0;
  for (McPlacement placement : kAllPlacements) {
    for (RoutingAlgorithm routing : routings) {
      for (VcPolicyKind policy : policies) {
        GpuConfig cfg = GpuConfig::Baseline();
        cfg.placement = placement;
        cfg.routing = routing;
        cfg.vc_policy = policy;
        cfg.audit = true;
        cfg.audit_interval = 8;
        cfg.telemetry = true;
        cfg.telemetry_interval = 100;
        const std::string label = std::string(workload) + " " +
                                  McPlacementName(placement) +
                                  "/" + RoutingName(routing) + "/" +
                                  VcPolicyName(policy);
        try {
          cfg.scheduling = SchedulingMode::kFull;
          GpuSystem full(cfg, FindWorkload(workload));
          const GpuRunStats a = full.Run(/*warmup=*/100, /*measure=*/300);
          cfg.scheduling = SchedulingMode::kSoa;
          GpuSystem soa(cfg, FindWorkload(workload));
          const GpuRunStats b = soa.Run(/*warmup=*/100, /*measure=*/300);
          ExpectRunsEqual(a, b, label);
          ++compared;
        } catch (const std::invalid_argument&) {
          // Deadlock-unsafe combination: correctly refused up front.
        }
      }
    }
  }
  return compared;
}

// The memory-bound end of the design space: the MC reply links saturate.
TEST(SchedulingBitIdentityTest, GpuDesignSpaceMatchesFullMode) {
  EXPECT_GE(CompareGpuDesignSpace("BFS"), 12)
      << "design space unexpectedly small";
}

// The compute-bound end: sparse traffic, so soa skips most routers on most
// cycles and every wake-up has to land on the right one.
TEST(SoaBitIdentityTest, GpuDesignSpaceMatchesFullMode) {
  EXPECT_GE(CompareGpuDesignSpace("LPS"), 12)
      << "design space unexpectedly small";
}

// The sweep engine forwards its scheduling override into every cell.
TEST(SchedulingBitIdentityTest, SweepOverrideMatchesFullMode) {
  SchemeSpec scheme{"baseline", GpuConfig::Baseline()};
  SweepOptions opts;
  opts.lengths = RunLengths{100, 500};
  opts.threads = 1;
  opts.scheduling = SchedulingMode::kSoa;
  const SweepResult soa = RunSweep({scheme}, {FindWorkload("KMN")}, opts);
  opts.scheduling = SchedulingMode::kFull;
  const SweepResult full = RunSweep({scheme}, {FindWorkload("KMN")}, opts);
  ExpectRunsEqual(full.Get("baseline", "KMN"), soa.Get("baseline", "KMN"),
                  "sweep override");
}

// --- snapshot round-trip through the SoA converter -------------------------

// Saving mid-run from an SoA-mode network and restoring into a fresh one
// must resume bit-identically. The snapshot format carries only object
// state, no SoA planes; the restore path must rebuild every SoA
// plane from the loaded objects (RebuildFromObjects), including front-ready
// caches for flits parked mid-VC and due caches for flits mid-channel.
TEST(SoaSnapshotTest, SoaModeResumesBitIdentically) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  cfg.vc_depth = 4;
  cfg.vc_policy = VcPolicyKind::kDynamic;
  cfg.dynamic_epoch = 64;
  cfg.scheduling = SchedulingMode::kSoa;

  struct Sink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  const auto make_net = [&] {
    auto net = std::make_unique<Network>(cfg);
    for (NodeId n = 0; n < net->num_nodes(); ++n) net->SetSink(n, &sink);
    return net;
  };
  // Deterministic all-to-all burst: plenty of contention mid-flight.
  const auto inject_burst = [](Network& net) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      Packet p;
      p.src = n;
      p.dst = net.num_nodes() - 1 - n;
      if (p.dst == p.src) continue;
      p.type = PacketType::kReadRequest;
      p.num_flits = 4;
      ASSERT_TRUE(net.Inject(p));
    }
  };
  const auto fingerprint = [](Network& net) {
    Serializer out;
    net.Save(out);
    return out.TakeBytes();
  };

  // Uninterrupted run: burst, then 500 cycles (drains and then idles over
  // several dynamic-epoch boundaries).
  auto plain = make_net();
  inject_burst(*plain);
  for (int c = 0; c < 500; ++c) plain->Tick();

  // Interrupted run: snapshot at cycle 10 while flits are in flight,
  // restore into a fresh SoA-mode network, replay the remaining cycles.
  auto first = make_net();
  inject_burst(*first);
  for (int c = 0; c < 10; ++c) first->Tick();
  ASSERT_GT(first->FlitsInFlight(), 0u) << "snapshot caught an idle instant";
  Serializer s;
  first->Save(s);

  auto second = make_net();
  Deserializer d(s.bytes());
  second->Load(d);
  d.Finish();
  EXPECT_GT(second->FlitsInFlight(), 0u);
  for (int c = 0; c < 490; ++c) second->Tick();

  EXPECT_EQ(fingerprint(*plain), fingerprint(*second));
}

// The snapshot bytes themselves are mode-independent object state: a
// full-mode network's mid-flight snapshot must restore into an SoA-mode
// network and drain to the same final summary the full-mode run reaches.
TEST(SoaSnapshotTest, FullModeSnapshotRestoresIntoSoaMode) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  cfg.vc_depth = 4;

  struct Sink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  const auto make_net = [&](SchedulingMode mode) {
    NetworkConfig c = cfg;
    c.scheduling = mode;
    auto net = std::make_unique<Network>(c);
    for (NodeId n = 0; n < net->num_nodes(); ++n) net->SetSink(n, &sink);
    return net;
  };
  const auto summarize = [](Network& net) {
    std::ostringstream out;
    out.precision(17);
    const NetworkSummary s = net.Summarize();
    out << net.now() << ' ' << net.FlitsInFlight() << ' '
        << s.flits_forwarded;
    for (int c = 0; c < kNumClasses; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      out << ' ' << s.packets_ejected[ci] << ' '
          << s.packet_latency[ci].mean();
    }
    return out.str();
  };

  auto full = make_net(SchedulingMode::kFull);
  for (NodeId n = 0; n < full->num_nodes(); ++n) {
    Packet p;
    p.src = n;
    p.dst = full->num_nodes() - 1 - n;
    if (p.dst == p.src) continue;
    p.type = PacketType::kReadRequest;
    p.num_flits = 4;
    ASSERT_TRUE(full->Inject(p));
  }
  for (int c = 0; c < 10; ++c) full->Tick();
  ASSERT_GT(full->FlitsInFlight(), 0u);
  Serializer s;
  full->Save(s);
  for (int c = 0; c < 490; ++c) full->Tick();

  auto soa = make_net(SchedulingMode::kSoa);
  Deserializer d(s.bytes());
  soa->Load(d);
  d.Finish();
  EXPECT_GT(soa->FlitsInFlight(), 0u);
  for (int c = 0; c < 490; ++c) soa->Tick();
  EXPECT_EQ(summarize(*full), summarize(*soa));
}

// --- watchdog parity -------------------------------------------------------

// The SoA tick must feed the deadlock watchdog the same idle/progress
// signal as full mode: a wedged network is declared dead at the same cycle.
Cycle DeadlockCycle(SchedulingMode mode) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.deadlock_threshold = 200;
  cfg.scheduling = mode;
  Network net(cfg);
  struct RefusingSink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return false; }
  } sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);
  Packet p;
  p.src = 0;
  p.dst = 15;
  p.type = PacketType::kReadRequest;
  p.num_flits = 3;
  EXPECT_TRUE(net.Inject(p));
  for (int c = 0; c < 2000; ++c) {
    net.Tick();
    if (net.Deadlocked()) return net.now();
  }
  return 0;  // never fired
}

TEST(SoaWatchdogTest, FiresAtTheSameCycleAsFullMode) {
  const Cycle full = DeadlockCycle(SchedulingMode::kFull);
  const Cycle soa = DeadlockCycle(SchedulingMode::kSoa);
  ASSERT_GT(full, 0u) << "watchdog never fired in full mode";
  EXPECT_EQ(full, soa);
}

// A snapshot taken mid-stall must restore
// the watchdog's baseline exactly, so a resumed run neither trips a
// spurious deadlock (baseline too old) nor masks the real one (baseline
// reset to the restore cycle). The resumed network must declare deadlock
// at the same cycle as the uninterrupted run.
TEST(SchedulingWatchdogTest, CheckpointMidStallKeepsDeadlockCycle) {
  const auto make_net = [](auto& sink) {
    NetworkConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.deadlock_threshold = 200;
    auto net = std::make_unique<Network>(cfg);
    for (NodeId n = 0; n < net->num_nodes(); ++n) net->SetSink(n, &sink);
    return net;
  };
  struct RefusingSink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return false; }
  } sink;

  auto reference = make_net(sink);
  Packet p;
  p.src = 0;
  p.dst = 15;
  p.type = PacketType::kReadRequest;
  p.num_flits = 3;
  ASSERT_TRUE(reference->Inject(p));
  Cycle uninterrupted = 0;
  Serializer snap;
  for (int c = 0; c < 2000; ++c) {
    // Snapshot 120 cycles into the stall — past the last progress event,
    // well before the threshold fires.
    if (reference->now() == 120) reference->Save(snap);
    reference->Tick();
    if (reference->Deadlocked()) {
      uninterrupted = reference->now();
      break;
    }
  }
  ASSERT_GT(uninterrupted, 0u) << "watchdog never fired uninterrupted";

  auto resumed = make_net(sink);
  Deserializer d(snap.bytes());
  resumed->Load(d);
  d.Finish();
  EXPECT_FALSE(resumed->Deadlocked()) << "spurious deadlock on restore";
  Cycle after_resume = 0;
  for (int c = 0; c < 2000; ++c) {
    resumed->Tick();
    if (resumed->Deadlocked()) {
      after_resume = resumed->now();
      break;
    }
  }
  ASSERT_GT(after_resume, 0u) << "restore masked the real deadlock";
  EXPECT_EQ(after_resume, uninterrupted);
}

// --- scheduler-coverage invariant ------------------------------------------

// Pinning every SoA due plane at "never" while flits are in flight is a
// lost wake by construction; the auditor's coverage sweep must report it.
TEST(SchedulingCoverageTest, ForceSleepTripsCoverageInvariant) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.scheduling = SchedulingMode::kSoa;
  cfg.audit = true;
  cfg.audit_interval = 1;
  Network net(cfg);
  struct Sink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);
  Packet p;
  p.src = 0;
  p.dst = 15;
  p.type = PacketType::kReadRequest;
  p.num_flits = 4;
  ASSERT_TRUE(net.Inject(p));
  for (int c = 0; c < 4; ++c) net.Tick();
  ASSERT_GT(net.FlitsInFlight(), 0u);
  net.ForceSleepAll();
  for (int c = 0; c < 4; ++c) net.Tick();
  const AuditReport r = net.AuditResults();
  EXPECT_GT(
      r.by_invariant[static_cast<std::size_t>(
          AuditInvariant::kSchedulerCoverage)],
      0u);
  EXPECT_FALSE(r.clean());
  ASSERT_FALSE(r.samples.empty());
  EXPECT_NE(r.samples[0].detail.find("link"), std::string::npos)
      << r.samples[0].detail;
  EXPECT_STREQ(AuditInvariantName(AuditInvariant::kSchedulerCoverage),
               "scheduler-coverage");
}

// A clean run must never trip the coverage invariant: every wake hook is
// in place, so every plane matches the objects at every snapshot — and
// the coverage sweep adds no audit checks, so the report equals full's.
TEST(SchedulingCoverageTest, CleanRunHasFullCoverage) {
  const auto run = [](SchedulingMode mode) {
    NetworkConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.vc_policy = VcPolicyKind::kDynamic;
    cfg.dynamic_epoch = 64;
    cfg.scheduling = mode;
    cfg.audit = true;
    cfg.audit_interval = 1;
    Network net(cfg);
    OpenLoopConfig tcfg;
    tcfg.pattern = TrafficPattern::kUniformRandom;
    tcfg.injection_rate = 0.2;
    tcfg.packet_size = 3;
    OpenLoopTraffic traffic(net, tcfg);
    for (int c = 0; c < 1000; ++c) {
      traffic.Tick();
      net.Tick();
    }
    EXPECT_TRUE(net.Drain(10000));
    return net.AuditResults();
  };
  const AuditReport soa = run(SchedulingMode::kSoa);
  EXPECT_TRUE(soa.clean())
      << (soa.samples.empty() ? std::string() : soa.samples[0].detail);
  EXPECT_EQ(soa.checks, run(SchedulingMode::kFull).checks);
}

// --- cost floor ------------------------------------------------------------

// An idle SoA network ticks no routers and visits no channels: the only
// per-cycle component steps are the NIC ticks (the SoA core keeps NICs on
// the dense object path; see DESIGN.md §14).
TEST(SoaCostTest, IdleNetworkTicksOnlyNics) {
  NetworkConfig cfg;
  cfg.scheduling = SchedulingMode::kSoa;
  Network soa(cfg);
  for (int c = 0; c < 1000; ++c) soa.Tick();

  cfg.scheduling = SchedulingMode::kFull;
  Network full(cfg);
  for (int c = 0; c < 1000; ++c) full.Tick();

  // 64 NIC steps per cycle, nothing else — well under full mode's
  // every-component bill.
  EXPECT_EQ(soa.TickSteps(), 1000u * 64u);
  EXPECT_GT(full.TickSteps(), soa.TickSteps());
}

// --- route LUT -------------------------------------------------------------

// The per-router LUT built at construction must agree with the analytic
// routing function for every (destination, class) on every router.
TEST(SchedulingRouteLutTest, LutMatchesComputeOutputPort) {
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  for (RoutingAlgorithm routing : routings) {
    NetworkConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.routing = routing;
    Network net(cfg);
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      const Router& router = net.router(n);
      for (int y = 0; y < cfg.height; ++y) {
        for (int x = 0; x < cfg.width; ++x) {
          const Coord dst{x, y};
          for (TrafficClass cls :
               {TrafficClass::kRequest, TrafficClass::kReply}) {
            EXPECT_EQ(router.RouteFor(cls, dst),
                      ComputeOutputPort(routing, cls, router.coord(), dst))
                << RoutingName(routing) << " node=" << n << " dst=(" << x
                << ',' << y << ')';
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gnoc
