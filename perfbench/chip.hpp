// The traced chip: a GpuSystem assembled by hand from the same public
// constructors GpuSystem uses (TilePlan, the Fabric with AnalyzeLinkUsage
// link modes, the SMs and the MCs), so that each layer's Tick loop can be
// timed and its heap allocations counted on its own.
//
// GpuSystem keeps its SMs and MCs private, so this is the only way to see
// per-layer host time from outside the simulator. Every cycle takes one
// clock pair per layer (all SM ticks, all MC ticks, Fabric::Tick), not one
// per component. The benchmark checks that the chip reproduces
// GpuSystem::Run's statistics bit for bit; otherwise its per-layer numbers
// would describe a different program.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/gpu_system.hpp"

namespace perfbench {

/// Per-layer host cost accumulated since the last ResetStats.
struct LayerCounters {
  double sm_ns = 0.0;      ///< all StreamingMultiprocessor::Tick calls
  double mc_ns = 0.0;      ///< all MemoryController::Tick calls
  double fabric_ns = 0.0;  ///< Fabric::Tick
  std::uint64_t gpgpu_allocs = 0;  ///< heap allocations in the SM + MC loops
  std::uint64_t noc_allocs = 0;    ///< heap allocations in Fabric::Tick
};

/// Simulated router and NIC counters summed over every network.
struct NocCounters {
  std::uint64_t flits_forwarded = 0;
  std::uint64_t sa_stalls = 0;
  std::uint64_t va_failures = 0;
  std::uint64_t inject_stall_cycles = 0;
  std::uint64_t nics = 0;
};

class TracedChip {
 public:
  /// Builds the chip the way GpuSystem's constructor does. Only the
  /// configurations the benchmark runs are supported: no ideal NoC and no
  /// trace recording (std::invalid_argument otherwise).
  TracedChip(const gnoc::GpuConfig& config,
             const gnoc::WorkloadProfile& workload);

  TracedChip(const TracedChip&) = delete;
  TracedChip& operator=(const TracedChip&) = delete;

  /// Host seconds spent building the NoC (validation, tile plan, fabric,
  /// link modes) and the GPGPU endpoints (SMs, MCs, sinks).
  double noc_build_s() const { return noc_build_s_; }
  double gpgpu_build_s() const { return gpgpu_build_s_; }

  /// GpuSystem::Tick with one clock pair and one allocation read per layer.
  void Tick();
  /// GpuSystem::ResetStats; also clears the layer counters.
  void ResetStats();
  /// GpuSystem::Measure, field for field.
  gnoc::GpuRunStats Measure() const;

  const gnoc::Fabric& fabric() const { return *fabric_; }
  const LayerCounters& layers() const { return layers_; }
  /// Network::TickSteps() summed over the networks since ResetStats.
  std::uint64_t MeasuredTickSteps() const {
    return TickSteps() - tick_steps_base_;
  }
  NocCounters Noc() const;
  std::size_t num_sms() const { return sms_.size(); }
  std::size_t num_mcs() const { return mcs_.size(); }
  /// Summed McStats::stall_cycles and SmStats issue/no-ready stall cycles.
  std::uint64_t McStallCycles() const;
  std::uint64_t SmStallCycles() const;

 private:
  std::uint64_t TickSteps() const;

  gnoc::GpuConfig config_;
  gnoc::WorkloadProfile workload_;
  std::unique_ptr<gnoc::TilePlan> plan_;
  std::unique_ptr<gnoc::Fabric> fabric_;
  std::vector<std::unique_ptr<gnoc::StreamingMultiprocessor>> sms_;
  std::vector<std::unique_ptr<gnoc::MemoryController>> mcs_;
  gnoc::Cycle measured_since_ = 0;
  double noc_build_s_ = 0.0;
  double gpgpu_build_s_ = 0.0;
  LayerCounters layers_;
  std::uint64_t tick_steps_base_ = 0;
};

}  // namespace perfbench
