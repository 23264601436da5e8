// report.hpp — shared rendering for the per-figure bench binaries.
//
// Every bench prints (a) the reproduced figure as an aligned table and
// (b) a paper-vs-measured scoreboard so EXPERIMENTS.md can be filled in
// directly from bench output.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/component_power.hpp"
#include "arch/energy_model.hpp"

namespace pdac::eval {

/// Render a Fig. 5 / Fig. 11 style component breakdown with ASCII bars.
std::string render_power_breakdown(const std::string& title,
                                   const arch::PowerBreakdown& breakdown);

/// Render a Fig. 9 / Fig. 10 style per-class energy table for a
/// baseline/P-DAC pair.
std::string render_energy_comparison(const std::string& title,
                                     const arch::EnergyComparison& cmp);

/// One paper-vs-measured scoreboard line.
struct Scored {
  std::string metric;
  double paper;     ///< value the paper reports
  double measured;  ///< value this reproduction computes
  std::string unit; ///< "%", "W", …
};

/// Render the scoreboard; `tolerance_note` is appended as a footer.
std::string render_scoreboard(const std::string& title, const std::vector<Scored>& rows,
                              const std::string& tolerance_note = {});

/// Simple CSV emission (one row per line) for downstream plotting.
std::string to_csv(const std::vector<std::string>& header,
                   const std::vector<std::vector<double>>& rows);

/// One operating point of the fault-tolerance ablation
/// (bench/abl_fault_tolerance): plain data so eval stays independent of
/// the faults library.
struct FaultRateRow {
  double fault_rate{};         ///< per-lane hard-fault probability
  std::size_t lanes_dead{};    ///< fenced by the self-test
  std::size_t lanes_recovered{};
  double throughput_scale{};   ///< degraded vs healthy effective throughput
  double cosine_accuracy{};    ///< encoder-layer output vs fp64 reference
  double recal_energy_uj{};    ///< detection + recovery + remap energy [µJ]
  /// Mean tiles scanned before corruption surfaced (ABFT guard;
  /// negative = not measured for this mode, column renders as "-").
  double detect_latency_tiles{-1.0};
};

/// Render the accuracy-vs-fault-rate table for one detection/recovery
/// mode, with an ASCII bar over the cosine accuracy column.
std::string render_fault_tolerance(const std::string& title,
                                   const std::vector<FaultRateRow>& rows);

/// Weight-stationary operand-cache counters (bench/perf_weight_cache,
/// DESIGN.md §10): plain data so eval stays independent of the nn
/// library — copy the fields out of nn::PreparedStoreStats.
struct OperandCacheSummary {
  std::uint64_t hits{};
  std::uint64_t misses{};
  std::uint64_t evictions{};
  std::uint64_t invalidations{};
  std::uint64_t oversized_rejects{};
  std::uint64_t resident_bytes{};
  std::uint64_t capacity_bytes{};
  std::uint64_t entries{};
};

/// Render the cache scoreboard (hit rate bar, occupancy, churn).
std::string render_operand_cache(const std::string& title, const OperandCacheSummary& s);

/// ABFT guard health rollup (bench/abl_abft_overhead, DESIGN.md §12):
/// plain data so eval stays independent of the faults library — copy the
/// fields out of faults::HealthSnapshot / nn::GuardStats and price the
/// event counters with arch::event_energy.
struct AbftGuardSummary {
  std::size_t products{};
  std::size_t tiles_checked{};
  std::size_t mismatched_tiles{};
  std::size_t detections{};        ///< products with ≥ 1 mismatched tile
  std::size_t retries{};
  std::size_t retrims{};
  std::size_t fences{};
  std::size_t unrecovered{};
  /// Drift-hysteresis policy state (DESIGN.md §16): absorbed in-band
  /// tiles, the split of re-trims fired proactively by the drift
  /// tracker, and re-trims the windowed governor refused.
  std::size_t drift_tiles{};
  std::size_t proactive_retrims{};
  std::size_t governed_retrims{};
  double worst_drift_ratio{};
  double mean_detection_latency{}; ///< tiles scanned before first mismatch
  double worst_residual{};
  double worst_tolerance{};
  double checksum_energy_uj{};     ///< spare checksum-lane charge [µJ]
  double retry_energy_uj{};        ///< recovery re-run charge [µJ]
  double data_energy_uj{};         ///< data-path charge, for overhead % [µJ]
};

/// Render the guard scoreboard: verification volume, mismatch rate bar,
/// recovery-ladder counts and the energy overhead split.
std::string render_abft_guard(const std::string& title, const AbftGuardSummary& s);

/// One backend of the serving pool (bench/perf_serving, DESIGN.md §14):
/// plain data so eval stays independent of the serve library.
struct ServingBackendRow {
  std::size_t tokens{};
  std::size_t products{};
  double utilization{};     ///< busy cycles / makespan
  double final_health{};    ///< guard-aware placement score at the end
  bool alive{true};
  bool quarantined{false};  ///< still in probation at run end
  std::size_t fences{};
  std::size_t unrecovered{};
  std::size_t drifting_lanes{};   ///< drift tracker: in-band wander
  std::size_t excursion_lanes{};  ///< drift tracker: re-trim warranted
};

/// Continuous-batching serving rollup: verdict accounting, latency
/// percentiles, goodput and its energy price.
struct ServingSummary {
  std::size_t requests{};
  std::size_t completed{};
  std::size_t shed{};
  std::size_t failed{};
  std::size_t tokens{};            ///< all tokens emitted
  std::size_t goodput_tokens{};    ///< tokens of completed requests
  std::uint64_t makespan_cycles{};
  double p50_token_gap{};          ///< inter-token latency [cycles]
  double p99_token_gap{};
  double p50_request_latency{};    ///< arrival → completion [cycles]
  double p99_request_latency{};
  double energy_uj{};              ///< pool total (data + guard + recovery)
  double goodput_per_joule{};      ///< completed tokens per joule
  std::size_t throttled_products{};///< run with a clamped re-trim ladder
  /// Quarantine/readmission activity (BackendPool, DESIGN.md §16).
  std::size_t quarantines{};
  std::size_t readmissions{};
  std::size_t canary_probes{};
  std::vector<ServingBackendRow> backends;
};

/// Render the serving scoreboard: verdict reconciliation, latency
/// percentiles, goodput-per-joule, and the per-backend placement split.
std::string render_serving(const std::string& title, const ServingSummary& s);

}  // namespace pdac::eval
