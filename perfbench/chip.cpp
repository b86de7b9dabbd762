#include "chip.hpp"

#include <chrono>
#include <stdexcept>

#include "alloc_counter.hpp"
#include "noc/deadlock.hpp"

namespace perfbench {

using namespace gnoc;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Nanos(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

/// The NetworkConfig GpuSystem's constructor derives from a GpuConfig.
NetworkConfig NetworkConfigOf(const GpuConfig& c) {
  NetworkConfig net;
  net.width = c.width;
  net.height = c.height;
  net.topology = c.topology;
  net.circulant_s1 = c.circulant_s1;
  net.circulant_s2 = c.circulant_s2;
  net.num_vcs = c.num_vcs;
  net.vc_depth = c.vc_depth;
  net.routing = c.routing;
  net.vc_policy = c.vc_policy;
  net.link_latency = c.link_latency;
  net.inject_queue_capacity = c.inject_queue_capacity;
  net.eject_capacity = c.eject_capacity;
  net.atomic_vc_realloc = c.atomic_vc_realloc;
  net.dynamic_epoch = c.dynamic_epoch;
  net.arbiter = c.arbiter;
  net.audit = c.audit;
  net.audit_interval = c.audit_interval;
  net.telemetry = c.telemetry;
  net.telemetry_interval = c.telemetry_interval;
  net.telemetry_max_windows = c.telemetry_max_windows;
  net.scheduling = c.scheduling;
  net.qos = c.qos;
  return net;
}

}  // namespace

TracedChip::TracedChip(const GpuConfig& config,
                       const WorkloadProfile& workload)
    : config_(config), workload_(workload) {
  if (config_.ideal_noc || config_.record_trace) {
    throw std::invalid_argument(
        "traced chip: ideal NoC and trace recording are not supported");
  }
  const auto t0 = Clock::now();
  plan_ = std::make_unique<TilePlan>(config_.width, config_.height,
                                     config_.num_mcs, config_.placement);
  const Topology topo =
      Topology::Make(config_.topology, config_.width, config_.height,
                     config_.circulant_s1, config_.circulant_s2);
  ValidatePolicyOrThrow(topo, *plan_, config_.routing, config_.vc_policy,
                        config_.allow_unsafe,
                        {config_.qos.classes[0].reserved_vcs,
                         config_.qos.classes[1].reserved_vcs});
  const NetworkConfig net = NetworkConfigOf(config_);
  if (config_.division == NetworkDivision::kPhysical) {
    fabric_ = std::make_unique<DualNetworkFabric>(net);
  } else {
    auto single = std::make_unique<SingleNetworkFabric>(net);
    Network& req_net = single->net(TrafficClass::kRequest);
    req_net.ConfigureLinkModes(
        AnalyzeLinkUsage(req_net.topology(), *plan_, config_.routing));
    fabric_ = std::move(single);
  }
  const auto t1 = Clock::now();

  Rng master(config_.seed);
  SmConfig sm_cfg = config_.sm;
  sm_cfg.sizes.write_request = workload_.write_request_flits;
  for (NodeId node : plan_->core_nodes()) {
    auto sm = std::make_unique<StreamingMultiprocessor>(
        node, sm_cfg, workload_, fabric_.get(), config_.num_mcs,
        master.Fork());
    sm->SetMcNodes(plan_->mc_nodes());
    fabric_->SetSink(node, sm.get());
    sms_.push_back(std::move(sm));
  }
  for (NodeId node : plan_->mc_nodes()) {
    auto mc = std::make_unique<MemoryController>(node, config_.mc,
                                                 fabric_.get());
    fabric_->SetSink(node, mc.get());
    if (config_.mc_inject_flits_per_cycle > 1) {
      fabric_->net(TrafficClass::kReply)
          .nic(node)
          .SetInjectFlitsPerCycle(config_.mc_inject_flits_per_cycle);
    }
    mcs_.push_back(std::move(mc));
  }
  const auto t2 = Clock::now();
  noc_build_s_ = Seconds(t0, t1);
  gpgpu_build_s_ = Seconds(t1, t2);
}

void TracedChip::Tick() {
  const Cycle now = fabric_->now();
  const auto t0 = Clock::now();
  const std::uint64_t a0 = ThreadAllocations();
  for (auto& sm : sms_) sm->Tick(now);
  const auto t1 = Clock::now();
  for (auto& mc : mcs_) mc->Tick(now);
  const auto t2 = Clock::now();
  const std::uint64_t a2 = ThreadAllocations();
  fabric_->Tick();
  const auto t3 = Clock::now();
  const std::uint64_t a3 = ThreadAllocations();
  layers_.sm_ns += Nanos(t0, t1);
  layers_.mc_ns += Nanos(t1, t2);
  layers_.fabric_ns += Nanos(t2, t3);
  layers_.gpgpu_allocs += a2 - a0;
  layers_.noc_allocs += a3 - a2;
}

std::uint64_t TracedChip::TickSteps() const {
  std::uint64_t steps = fabric_->net(TrafficClass::kRequest).TickSteps();
  if (fabric_->num_networks() == 2) {
    steps += fabric_->net(TrafficClass::kReply).TickSteps();
  }
  return steps;
}

void TracedChip::ResetStats() {
  fabric_->ResetStats();
  for (auto& sm : sms_) sm->ResetStats();
  for (auto& mc : mcs_) mc->ResetStats();
  measured_since_ = fabric_->now();
  layers_ = LayerCounters{};
  tick_steps_base_ = TickSteps();
}

GpuRunStats TracedChip::Measure() const {
  GpuRunStats out;
  out.cycles = fabric_->now() - measured_since_;
  for (const auto& sm : sms_) out.instructions += sm->stats().instructions;
  out.ipc = out.cycles == 0 ? 0.0
                            : static_cast<double>(out.instructions) /
                                  static_cast<double>(out.cycles);
  out.network = fabric_->Summarize();
  out.network.cycles = out.cycles;
  out.packets_by_type = fabric_->PacketsByType();
  out.request_flits = out.network.flits_injected[static_cast<std::size_t>(
      ClassIndex(TrafficClass::kRequest))];
  out.reply_flits = out.network.flits_injected[static_cast<std::size_t>(
      ClassIndex(TrafficClass::kReply))];

  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  double row_hit_sum = 0.0;
  for (const auto& mc : mcs_) {
    l2_hits += mc->stats().l2_read_hits;
    l2_misses += mc->stats().l2_read_misses;
    row_hit_sum += mc->dram_stats().row_hit_rate();
  }
  out.l2_miss_rate =
      (l2_hits + l2_misses) == 0
          ? 0.0
          : static_cast<double>(l2_misses) /
                static_cast<double>(l2_hits + l2_misses);
  out.dram_row_hit_rate = mcs_.empty() ? 0.0 : row_hit_sum / mcs_.size();

  RunningStats read_latency;
  for (const auto& sm : sms_) read_latency.Merge(sm->stats().read_latency);
  out.avg_read_latency = read_latency.mean();
  out.deadlocked = fabric_->Deadlocked();
  const RunReport report = fabric_->CollectRunReport();
  out.audit = report.audit;
  out.telemetry = report.telemetry;
  out.qos = report.qos;
  return out;
}

NocCounters TracedChip::Noc() const {
  NocCounters out;
  for (int n = 0; n < fabric_->num_networks(); ++n) {
    const Network& net = fabric_->net(n == 0 ? TrafficClass::kRequest
                                             : TrafficClass::kReply);
    for (int r = 0; r < net.num_routers(); ++r) {
      const RouterStats& s = net.router(static_cast<NodeId>(r)).stats();
      out.flits_forwarded += s.flits_forwarded;
      out.sa_stalls += s.sa_stalls;
      out.va_failures += s.va_failures;
    }
    for (int t = 0; t < net.num_nodes(); ++t) {
      out.inject_stall_cycles +=
          net.nic(static_cast<NodeId>(t)).stats().inject_stall_cycles;
      ++out.nics;
    }
  }
  return out;
}

std::uint64_t TracedChip::McStallCycles() const {
  std::uint64_t cycles = 0;
  for (const auto& mc : mcs_) cycles += mc->stats().stall_cycles;
  return cycles;
}

std::uint64_t TracedChip::SmStallCycles() const {
  std::uint64_t cycles = 0;
  for (const auto& sm : sms_) {
    cycles += sm->stats().issue_stalls + sm->stats().no_ready_warp;
  }
  return cycles;
}

}  // namespace perfbench
