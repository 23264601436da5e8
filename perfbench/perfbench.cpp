// perfbench — the repository's benchmark: workloads through the public
// nn / serve APIs on the 8-bit P-DAC photonic core, with their own
// correctness and determinism gates.
//
//   prefill_bert  nn::Transformer::forward at BERT-base width (768 wide,
//                 12 heads, d_ff 3072, 4 layers) on seq-128 prompts.
//   serve_storm   serve::ServingEngine over a 3-backend guarded pool with
//                 KV attention on, live deadlines and a per-lane fault
//                 storm on every slot.
//   decode_long   one sequence decoded token by token to a 1024 context
//                 through a 4-layer decoder stack (d_model 256, 4 heads,
//                 d_ff 1024) built from MultiHeadAttention::forward_decode,
//                 Linear up -> gelu -> Linear down.  Its 1-row GEMVs stream
//                 ~45 MB of prepared operands per token, so its host time
//                 follows a shared host's memory contention (pass
//                 times of 3-16 s within minutes); BENCHMARK.json does not
//                 gate it, but it runs and traces like the others.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-dir DIR]
//
// Untraced runs (--trace 0) time repeated identical passes on the real
// backend and print the end-to-end metrics.  Traced runs (--trace 1)
// route products through TimingBackend, record spans, print the
// per-layer metrics and write the spans to DIR.  Every line before the
// last is human-readable (failed gates are listed); the last line is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "sim_signature":
//    "...", "metrics": {name: {"value": v, "unit": u}}}
// Simulated quantities must repeat bit for bit: every pass of a run is
// compared with the first, and sim_signature hashes them so separate
// runs of the same code and seed can be compared too (perfbench/run.py).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/energy_model.hpp"
#include "arch/lt_config.hpp"
#include "arch/power_params.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/modulator_driver.hpp"
#include "faults/fault_schedule.hpp"
#include "nn/attention.hpp"
#include "nn/backend.hpp"
#include "nn/linear.hpp"
#include "nn/model_config.hpp"
#include "nn/ops.hpp"
#include "nn/transformer.hpp"
#include "nn/workload_trace.hpp"
#include "serve/engine.hpp"
#include "serve/workload.hpp"
#include "timing_backend.hpp"

namespace perfbench {
namespace {

using namespace pdac;

// ---- gates and paper references ------------------------------------------

/// Floors on the cosine between the photonic and the fp64 outputs.  The
/// 8-bit P-DAC chain with ADC readout on random-weight models sits near
/// 0.86 (decode) and 0.63 (BERT prefill) on every seed tried; the floors
/// catch a numerics break, while any change at all shows in the
/// simulated-quantity signature.
constexpr double kDecodeCosineFloor = 0.80;
constexpr double kPrefillCosineFloor = 0.55;
/// Paper (P-DAC, 8-bit BERT-base on the LT DPTC array): energy saved.
constexpr double kPaperTotalSavingPct = 32.3;
constexpr double kPaperAttnSavingPct = 42.0;
constexpr double kPaperFfnSavingLoPct = 32.0;
constexpr double kPaperFfnSavingHiPct = 35.0;

// ---- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct{true};
  std::vector<std::string> gates;  ///< "PASS name" / "FAIL name"
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  std::string sim;  ///< every simulated quantity, full precision

  void gate(bool ok, const std::string& what) {
    gates.push_back((ok ? "PASS " : "FAIL ") + what);
    correct = correct && ok;
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a simulated quantity in the signature and as a metric.
  void add_sim(const std::string& name, double value, const std::string& unit) {
    add(name, value, unit);
    note_sim(name, value);
  }
  void note_sim(const std::string& name, double value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", name.c_str(), value);
    sim += buf;
  }
};

// ---- helpers ---------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Matrix gaussian_rows(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::random_gaussian(rows, cols, rng, 0.0, 1.0);
}

std::uint64_t hash_string(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t fnv1a(const Matrix& m, std::uint64_t h = 14695981039346656037ull) {
  return serve::fnv1a(m.data(), h);
}

bool all_finite(const Matrix& m) {
  return std::all_of(m.data().begin(), m.data().end(), [](double v) { return std::isfinite(v); });
}

double cosine(const Matrix& a, const Matrix& b) {
  if (a.size() != b.size()) return 0.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a.data()[i] * b.data()[i];
    na += a.data()[i] * a.data()[i];
    nb += b.data()[i] * b.data()[i];
  }
  return na > 0.0 && nb > 0.0 ? dot / std::sqrt(na * nb) : 0.0;
}

std::string events_key(const ptc::EventCounter& e) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%llu/%llu/%llu/%llu/%llu/%llu",
                static_cast<unsigned long long>(e.modulation_events),
                static_cast<unsigned long long>(e.detection_events),
                static_cast<unsigned long long>(e.adc_events),
                static_cast<unsigned long long>(e.ddot_ops),
                static_cast<unsigned long long>(e.macs),
                static_cast<unsigned long long>(e.cycles));
  return buf;
}

double price_uj(const ptc::EventCounter& ev, arch::SystemVariant variant) {
  static const arch::LtConfig lt = arch::lt_base();
  static const arch::PowerParams params = arch::lt_power_params();
  return arch::event_energy(ev, lt, params, 8, variant).joules() * 1e6;
}

/// Energy the P-DAC saves against the DAC-based design on the same events.
double saving_pct(const ptc::EventCounter& ev) {
  const double dac = price_uj(ev, arch::SystemVariant::kDacBased);
  const double pdac = price_uj(ev, arch::SystemVariant::kPdacBased);
  return dac > 0.0 ? 100.0 * (1.0 - pdac / dac) : 0.0;
}

/// The highest percentile of `v` with at least 10 samples beyond it.
struct Tail {
  double value{0.0};
  double pct{0.0};
  std::size_t n{0};
};
Tail tail_of(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.size() < 11) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() - 11;  // ten samples strictly above
  t.value = v[idx];
  t.pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  return t;
}

/// Repeat `build` `reps` times, keep the last result, return the median
/// wall time of one build.
template <class T, class Build>
double timed_setup(int reps, std::unique_ptr<T>& keep, Build&& build) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    keep.reset();  // free the previous build before timing the next
    const std::int64_t t0 = now_ns();
    keep = build();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Run `pass(i)` until `seconds` have elapsed and at least `min_passes`
/// ran; returns each pass's wall time [s].
template <class Pass>
std::vector<double> timed_passes(double seconds, std::size_t min_passes, Pass&& pass) {
  std::vector<double> t;
  const std::int64_t start = now_ns();
  while (t.size() < min_passes || seconds_since(start) < seconds) {
    const std::int64_t t0 = now_ns();
    pass(t.size());
    t.push_back(seconds_since(t0));
  }
  return t;
}

/// The benchmark's P-DAC configuration: 8-bit, full optics, ADC readout,
/// single-threaded, on the fastest tier the P-DAC modulator driver supports.
ptc::GemmConfig pdac_gemm_config() {
  ptc::GemmConfig cfg;
  cfg.dot.use_full_optics = true;
  cfg.dot.adc_readout = true;
  cfg.threads = 1;
  return nn::fastest_gemm_config(*core::make_pdac_driver(8), cfg);
}

std::unique_ptr<nn::GemmBackend> make_pdac_backend() {
  return nn::make_photonic_pdac_backend(8, pdac_gemm_config());
}

const char* tier_name() {
  switch (pdac_gemm_config().path) {
    case ptc::ExecutionPath::kKernelQuant: return "quant";
    case ptc::ExecutionPath::kKernelSimd: return "simd";
    case ptc::ExecutionPath::kKernel: return "kernel";
    default: return "device_graph";
  }
}

/// Shared per-layer numbers of the nn workloads' traced runs.
struct NnTrace {
  TimingBackend* tb;
  const SpanRecorder* rec;
  double tokens;          ///< tokens over the traced passes
  double pass_ms;         ///< summed wall time of the traced passes
  double untraced_tok_s;  ///< host_tok_s of interleaved untraced passes
  double traced_tok_s;
  nn::OperandCacheStats cache0;  ///< operand-cache stats when the passes began
};

void add_nn_layer_metrics(Outcome& out, const NnTrace& t, const std::vector<double>& layer_ms) {
  const auto ms = [&](std::int64_t ns) { return static_cast<double>(ns) * 1e-6 / t.tokens; };
  const CallStats& w = t.tb->by_kind(Kind::kWeight);
  const CallStats& kv = t.tb->by_kind(Kind::kKv);
  const CallStats& act = t.tb->by_kind(Kind::kAct);
  const double backend_ms = ms(w.ns + kv.ns + act.ns);
  out.add("ptc.weight_gemm_ms_per_tok", ms(w.ns), "ms");
  out.add("ptc.kv_gemm_ms_per_tok", ms(kv.ns), "ms");
  out.add("ptc.act_gemm_ms_per_tok", ms(act.ns), "ms");
  out.add_sim("ptc.calls_per_tok.weight", static_cast<double>(w.calls) / t.tokens, "count");
  out.add_sim("ptc.calls_per_tok.kv", static_cast<double>(kv.calls) / t.tokens, "count");
  out.add_sim("ptc.calls_per_tok.act", static_cast<double>(act.calls) / t.tokens, "count");
  ptc::EventCounter all = w.events + kv.events + act.events;
  out.add("ptc.host_ns_per_mac", backend_ms * 1e6 * t.tokens / static_cast<double>(all.macs),
          "ns");
  out.add_sim("ptc.macs_per_tok", static_cast<double>(all.macs) / t.tokens, "count");
  out.add_sim("ptc.modulations_per_tok", static_cast<double>(all.modulation_events) / t.tokens,
              "count");
  out.add_sim("ptc.adc_per_tok", static_cast<double>(all.adc_events) / t.tokens, "count");
  out.add_sim("ptc.cycles_per_tok", static_cast<double>(all.cycles) / t.tokens, "cycles");

  // nn self time: layer-call spans minus the backend time inside them.
  double layer_total = 0.0;
  for (double v : layer_ms) layer_total += v;
  out.add("nn.self_ms_per_tok", layer_total / t.tokens - backend_ms, "ms");
  std::int64_t attn_ns = 0, ffn_ns = 0;
  ptc::EventCounter attn_ev, ffn_ev;
  for (std::size_t r = 0; r < static_cast<std::size_t>(Role::kCount); ++r) {
    const CallStats& s = t.tb->by_role(static_cast<Role>(r));
    (is_attention(static_cast<Role>(r)) ? attn_ns : ffn_ns) += s.ns;
    (is_attention(static_cast<Role>(r)) ? attn_ev : ffn_ev) += s.events;
  }
  out.add("nn.attn_ms_per_tok", ms(attn_ns), "ms");
  out.add("nn.ffn_ms_per_tok", ms(ffn_ns), "ms");
  out.add_sim("arch.attn_uj_per_tok",
              price_uj(attn_ev, arch::SystemVariant::kPdacBased) / t.tokens, "uJ");
  out.add_sim("arch.ffn_uj_per_tok", price_uj(ffn_ev, arch::SystemVariant::kPdacBased) / t.tokens,
              "uJ");
  out.add_sim("arch.attn_saving_pct", saving_pct(attn_ev), "%");
  out.add_sim("arch.ffn_saving_pct", saving_pct(ffn_ev), "%");

  // Backend kinds + nn self time = the layer spans; their share of the
  // pass wall time shows what the split leaves out (benchmark loop glue).
  out.add("trace.accounted_share", layer_total / t.pass_ms, "ratio");
  out.add("trace.overhead_pct", 100.0 * (t.untraced_tok_s / t.traced_tok_s - 1.0), "%");
  out.add("trace.spans", static_cast<double>(t.rec->spans().size()), "count");
  out.gate(t.tb->unmapped_calls() == 0, "every weight product maps to a role");

  // Misses count the set-up's prepares; the hit share covers the passes.
  const nn::OperandCacheStats& os = t.tb->operand_cache()->stats();
  const double lookups = static_cast<double>(os.hits + os.misses - t.cache0.hits - t.cache0.misses);
  out.add_sim("nn.operand_cache.hit_share", static_cast<double>(os.hits - t.cache0.hits) / lookups,
              "ratio");
  out.add_sim("nn.operand_cache.misses", static_cast<double>(os.misses), "count");
  out.add_sim("nn.operand_cache.resident_mb", static_cast<double>(os.resident_bytes) / 1048576.0,
              "MB");
}

/// Every per-layer metric, in report order.  A workload that bypasses a
/// layer reports that layer's metrics as 0 (complete_per_layer).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"ptc.weight_gemm_ms_per_tok", "ms"},
    {"ptc.kv_gemm_ms_per_tok", "ms"},
    {"ptc.act_gemm_ms_per_tok", "ms"},
    {"ptc.calls_per_tok.weight", "count"},
    {"ptc.calls_per_tok.kv", "count"},
    {"ptc.calls_per_tok.act", "count"},
    {"ptc.host_ns_per_mac", "ns"},
    {"ptc.macs_per_tok", "count"},
    {"ptc.modulations_per_tok", "count"},
    {"ptc.adc_per_tok", "count"},
    {"ptc.cycles_per_tok", "cycles"},
    {"nn.self_ms_per_tok", "ms"},
    {"nn.attn_ms_per_tok", "ms"},
    {"nn.ffn_ms_per_tok", "ms"},
    {"nn.cosine_vs_fp64", "ratio"},
    {"nn.operand_cache.hit_share", "ratio"},
    {"nn.operand_cache.misses", "count"},
    {"nn.operand_cache.resident_mb", "MB"},
    {"nn.kv_cache.append_share", "ratio"},
    {"nn.kv_cache.rebuilds", "count"},
    {"nn.kv_cache.resident_mb", "MB"},
    {"arch.attn_uj_per_tok", "uJ"},
    {"arch.ffn_uj_per_tok", "uJ"},
    {"arch.attn_saving_pct", "%"},
    {"arch.ffn_saving_pct", "%"},
    {"faults.storm_ms_per_tok", "ms"},
    {"faults.tiles_checked", "count"},
    {"faults.mismatch_share", "ratio"},
    {"faults.sec_corrections", "count"},
    {"faults.retries", "count"},
    {"faults.retrims", "count"},
    {"faults.fences", "count"},
    {"faults.unrecovered", "count"},
    {"faults.probe_events", "count"},
    {"faults.drift_tiles", "count"},
    {"faults.recovery_uj_share", "ratio"},
    {"serve.queue_wait_p50_cycles", "cycles"},
    {"serve.rows_per_product", "count"},
    {"serve.backend_util", "ratio"},
    {"serve.throttled_share", "ratio"},
    {"serve.quarantines", "count"},
    {"serve.canary_probes", "count"},
    {"serve.shed_share", "ratio"},
    {"serve.kv_append_share", "ratio"},
    {"serve.pool_build_ms", "ms"},
    {"serve.exact_request_share", "ratio"},
    {"serve.ttft_p50_cycles", "cycles"},
    {"serve.ttft_tail_cycles", "cycles"},
    {"serve.ttft_tail_pct", "%"},
    {"serve.ttft_samples", "count"},
    {"serve.token_gap_p50_cycles", "cycles"},
    {"serve.token_gap_tail_cycles", "cycles"},
    {"serve.token_gap_tail_pct", "%"},
    {"serve.token_gap_samples", "count"},
    {"serve.goodput_share", "ratio"},
    {"serve.slo_rate_req_per_mcycle", "1/Mcycle"},
    {"trace.accounted_share", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

/// Add 0 for every per-layer metric the workload did not report (the
/// layers it bypasses) and put the metrics in kPerLayer order.
void complete_per_layer(Outcome& out) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    ordered.push_back(it != out.metrics.end() ? *it : Metric{name, 0.0, unit});
  }
  const auto known = std::count_if(out.metrics.begin(), out.metrics.end(), [](const Metric& m) {
    return std::any_of(kPerLayer.begin(), kPerLayer.end(),
                       [&](const auto& k) { return m.name == k.first; });
  });
  out.gate(static_cast<std::size_t>(known) == out.metrics.size(),
           "every per-layer metric is listed");
  out.metrics = std::move(ordered);
}

/// The paper's savings next to the simulated ones, and fig09's analytic
/// number from the same energy model (BERT-base, 8-bit).
void print_paper_reference(double measured_pct) {
  const arch::EnergyComparison cmp = arch::compare_energy(
      nn::trace_forward(nn::bert_base()), arch::lt_base(), arch::lt_power_params(), 8);
  std::printf("P-DAC saving: %.2f %% event-priced here; paper 8-bit BERT-base %.1f %% total "
              "(attention ~%.0f %%, FFN %.0f-%.0f %%); fig09 analytic %.1f %% total, "
              "%.1f %% attention, %.1f %% FFN; gap to paper %.1f points\n",
              measured_pct, kPaperTotalSavingPct, kPaperAttnSavingPct, kPaperFfnSavingLoPct,
              kPaperFfnSavingHiPct, 100.0 * cmp.total_saving(),
              100.0 * cmp.saving(nn::OpClass::kAttention), 100.0 * cmp.saving(nn::OpClass::kFfn),
              kPaperTotalSavingPct - measured_pct);
}

/// End-to-end metrics every untraced run reports.
void add_end_to_end(Outcome& out, double setup_s, double tokens_per_pass,
                    const std::vector<double>& pass_s, const ptc::EventCounter& pass_events,
                    double uj_per_token) {
  out.add("setup_s", setup_s, "s");
  out.add("host_tok_s", tokens_per_pass / median(pass_s), "1/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add_sim("sim_cycles_per_token", static_cast<double>(pass_events.cycles) / tokens_per_pass,
              "cycles");
  out.add_sim("sim_uj_per_token", uj_per_token, "uJ");
  out.add_sim("pdac_saving_pct", saving_pct(pass_events), "%");
  print_paper_reference(saving_pct(pass_events));
  std::printf("passes: %zu, pass wall median %.4f s; each [s]:", pass_s.size(), median(pass_s));
  for (const double t : pass_s) std::printf(" %.3f", t);
  std::printf("\n");
}

// ---- decode_long -------------------------------------------------------------

constexpr std::size_t kDecD = 256, kDecHeads = 4, kDecFf = 1024, kDecLayers = 4;
constexpr std::size_t kDecContext = 1024;
/// Leading decode steps replayed on the fp64 reference for the cosine
/// gate (the whole context would cost ~3x a photonic pass).
constexpr std::size_t kDecRefTokens = 256;

struct DecoderStack {
  std::vector<nn::MultiHeadAttention> attn;
  std::vector<nn::Linear> up, down;
  std::vector<double> gamma = std::vector<double>(kDecD, 1.0);
  std::vector<double> beta = std::vector<double>(kDecD, 0.0);

  explicit DecoderStack(std::uint64_t seed) {
    Rng rng(seed);
    attn.reserve(kDecLayers);
    up.reserve(kDecLayers);
    down.reserve(kDecLayers);
    for (std::size_t l = 0; l < kDecLayers; ++l) {
      attn.emplace_back(kDecD, kDecHeads);
      attn.back().init_random(rng);
      up.emplace_back(kDecD, kDecFf);
      up.back().init_random(rng);
      down.emplace_back(kDecFf, kDecD);
      down.back().init_random(rng);
    }
  }

  void register_roles(TimingBackend& tb) {
    for (std::size_t l = 0; l < kDecLayers; ++l) {
      tb.register_weight(attn[l].q_proj().weight_handle().id, Role::kQ);
      tb.register_weight(attn[l].k_proj().weight_handle().id, Role::kK);
      tb.register_weight(attn[l].v_proj().weight_handle().id, Role::kV);
      tb.register_weight(attn[l].o_proj().weight_handle().id, Role::kO);
      tb.register_weight(up[l].weight_handle().id, Role::kUp);
      tb.register_weight(down[l].weight_handle().id, Role::kDown);
    }
  }

  /// Decode `tokens` (one row per step) with fresh KV state; returns the
  /// stack's output row per step.  Pre-norm residual blocks.
  Matrix decode(const Matrix& tokens, nn::GemmBackend& be, SpanRecorder* rec,
                nn::KvPreparedCacheStats* kv_at_end = nullptr) const {
    std::vector<nn::AttentionKvState> kv;
    for (const auto& a : attn) kv.push_back(a.make_kv_state());
    Matrix out(tokens.rows(), kDecD);
    Matrix x(1, kDecD);
    for (std::size_t t = 0; t < tokens.rows(); ++t) {
      SpanGuard step(rec, "token", t);
      std::copy(tokens.row(t).begin(), tokens.row(t).end(), x.row(0).begin());
      for (std::size_t l = 0; l < kDecLayers; ++l) {
        {
          SpanGuard s(rec, "attn", l);
          Matrix h = x;
          nn::layer_norm(h, gamma, beta);
          nn::add_inplace(x, attn[l].forward_decode(h, be, kv[l]));
        }
        {
          SpanGuard s(rec, "ffn", l);
          Matrix h = x;
          nn::layer_norm(h, gamma, beta);
          Matrix f = up[l].forward(h, be);
          nn::gelu(f);
          nn::add_inplace(x, down[l].forward(f, be));
        }
      }
      std::copy(x.row(0).begin(), x.row(0).end(), out.row(t).begin());
    }
    if (kv_at_end != nullptr && be.kv_cache() != nullptr) *kv_at_end = be.kv_cache()->stats();
    for (const auto& s : kv) nn::MultiHeadAttention::release_kv_state(s, be);
    return out;
  }
};

struct DecodeState {
  DecoderStack stack;
  Matrix tokens;
  std::unique_ptr<nn::GemmBackend> backend;
  explicit DecodeState(std::uint64_t seed)
      : stack(seed), tokens(gaussian_rows(kDecContext, kDecD, seed ^ 0x70c3e5ull)),
        backend(make_pdac_backend()) {
    // Warm-up: a short decode fills the operand cache with every weight.
    (void)stack.decode(Matrix(4, kDecD, 0.5), *backend, nullptr);
  }
};

Outcome run_decode_long(std::uint64_t seed, double seconds, bool trace,
                        const std::string& trace_dir) {
  Outcome out;
  std::unique_ptr<DecodeState> st;
  const double setup_s = timed_setup(3, st, [&] { return std::make_unique<DecodeState>(seed); });
  const double tokens = static_cast<double>(kDecContext);

  // Reference decode on identical weights and inputs.
  const std::int64_t ref_t0 = now_ns();
  nn::ReferenceBackend ref;
  Matrix ref_in(kDecRefTokens, kDecD);
  std::copy_n(st->tokens.data().begin(), ref_in.size(), ref_in.data().begin());
  const Matrix ref_out = st->stack.decode(ref_in, ref, nullptr);
  const auto cosine_vs_ref = [&](const Matrix& o) {
    Matrix head(kDecRefTokens, kDecD);
    std::copy_n(o.data().begin(), head.size(), head.data().begin());
    return cosine(head, ref_out);
  };
  std::printf("fp64 reference decode: %.3f s\n", seconds_since(ref_t0));

  std::uint64_t digest0 = 0;
  std::string events0;
  ptc::EventCounter pass_events;
  nn::KvPreparedCacheStats kv0{}, kv_end{};
  Matrix first_out;
  auto pass = [&](nn::GemmBackend& be, SpanRecorder* rec, std::size_t i) {
    const ptc::EventCounter e0 = be.events();
    kv0 = be.kv_cache()->stats();
    SpanGuard span(rec, "pass", i);
    Matrix o = st->stack.decode(st->tokens, be, rec, &kv_end);
    pass_events = be.events() - e0;
    out.attempted += kDecContext;
    for (std::size_t t = 0; t < o.rows(); ++t) {
      if (!std::all_of(o.row(t).begin(), o.row(t).end(),
                       [](double v) { return std::isfinite(v); })) {
        ++out.failed;
      }
    }
    const std::uint64_t d = fnv1a(o);
    if (first_out.size() == 0) {
      first_out = std::move(o);
      digest0 = d;
      events0 = events_key(pass_events);
    } else {
      out.gate(d == digest0 && events_key(pass_events) == events0,
               "pass " + std::to_string(i) + " bit-equal to pass 0");
    }
  };

  if (!trace) {
    const std::vector<double> t =
        timed_passes(seconds, 2, [&](std::size_t i) { pass(*st->backend, nullptr, i); });
    out.gate(all_finite(first_out), "all outputs finite");
    const double c = cosine_vs_ref(first_out);
    out.gate(c >= kDecodeCosineFloor, "cosine_vs_fp64 " + std::to_string(c) + " >= floor");
    out.note_sim("cosine_vs_fp64", c);
    out.note_sim("digest", static_cast<double>(digest0 >> 11));
    add_end_to_end(out, setup_s, tokens, t, pass_events,
                   price_uj(pass_events, arch::SystemVariant::kPdacBased) / tokens);
    return out;
  }

  // Traced run: traced and untraced passes alternate; per-layer numbers
  // come from the traced ones.
  SpanRecorder rec;
  TimingBackend tb(*st->backend, rec);
  st->stack.register_roles(tb);
  const nn::OperandCacheStats cache0 = st->backend->operand_cache()->stats();
  std::vector<double> untraced, traced;
  timed_passes(seconds, 1, [&](std::size_t i) {
    std::int64_t t0 = now_ns();
    pass(*st->backend, nullptr, 2 * i);
    untraced.push_back(seconds_since(t0));
    t0 = now_ns();
    pass(tb, &rec, 2 * i + 1);
    traced.push_back(seconds_since(t0));
  });
  out.gate(all_finite(first_out), "all outputs finite");
  const double c = cosine_vs_ref(first_out);
  out.gate(c >= kDecodeCosineFloor, "cosine_vs_fp64 " + std::to_string(c) + " >= floor");
  out.note_sim("digest", static_cast<double>(digest0 >> 11));

  const double traced_tokens = tokens * static_cast<double>(traced.size());
  const std::vector<double> layer_ms = {rec.total_ns("attn") * 1e-6, rec.total_ns("ffn") * 1e-6};
  NnTrace nt{&tb, &rec, traced_tokens, static_cast<double>(rec.total_ns("pass")) * 1e-6,
             tokens / median(untraced), tokens / median(traced), cache0};
  add_nn_layer_metrics(out, nt, layer_ms);
  out.add_sim("nn.cosine_vs_fp64", c, "ratio");
  const std::uint64_t kv_products = kv_end.appends - kv0.appends + kv_end.rebuilds -
                                    kv0.rebuilds + kv_end.misses - kv0.misses;
  out.add_sim("nn.kv_cache.append_share",
              static_cast<double>(kv_end.appends - kv0.appends) / static_cast<double>(kv_products),
              "ratio");
  out.add_sim("nn.kv_cache.rebuilds", static_cast<double>(kv_end.rebuilds - kv0.rebuilds),
              "count");
  out.add_sim("nn.kv_cache.resident_mb", static_cast<double>(kv_end.resident_bytes) / 1048576.0,
              "MB");
  complete_per_layer(out);
  if (!rec.write_csv(trace_dir + "/decode_long.spans.csv")) {
    std::fprintf(stderr, "could not write spans to %s\n", trace_dir.c_str());
  }
  return out;
}

// ---- prefill_bert ------------------------------------------------------------

/// Four BERT-base layers: their prepared weights (~226 MB) stay under
/// the 256 MB operand-cache default, so every forward is cache-resident.
constexpr std::size_t kPrefillLayers = 4;
constexpr std::size_t kPrompts = 4;  ///< distinct prompts cycled over the passes

nn::TransformerConfig prefill_config() {
  nn::TransformerConfig cfg = nn::bert_base(128);
  cfg.layers = kPrefillLayers;
  return cfg;
}

struct PrefillState {
  nn::Transformer model{prefill_config()};
  std::vector<Matrix> prompts;
  std::unique_ptr<nn::GemmBackend> backend;

  explicit PrefillState(std::uint64_t seed) : backend(make_pdac_backend()) {
    model.init_random(seed);
    for (std::size_t p = 0; p < kPrompts; ++p) {
      prompts.push_back(model.random_input(seed * 1000003ull + p + 1));
    }
    // Warm-up: one forward prepares every weight into the operand cache.
    (void)model.forward(prompts[0], *backend);
  }

  void register_roles(TimingBackend& tb) {
    for (std::size_t l = 0; l < model.layer_count(); ++l) {
      nn::EncoderLayer& layer = model.layer(l);
      tb.register_weight(layer.attention().q_proj().weight_handle().id, Role::kQ);
      tb.register_weight(layer.attention().k_proj().weight_handle().id, Role::kK);
      tb.register_weight(layer.attention().v_proj().weight_handle().id, Role::kV);
      tb.register_weight(layer.attention().o_proj().weight_handle().id, Role::kO);
      tb.register_weight(layer.ffn_up().weight_handle().id, Role::kUp);
      tb.register_weight(layer.ffn_down().weight_handle().id, Role::kDown);
    }
  }
};

Outcome run_prefill_bert(std::uint64_t seed, double seconds, bool trace,
                         const std::string& trace_dir) {
  Outcome out;
  std::unique_ptr<PrefillState> st;
  const double setup_s = timed_setup(3, st, [&] { return std::make_unique<PrefillState>(seed); });
  const double tokens = static_cast<double>(prefill_config().seq_len);

  std::vector<std::uint64_t> digest(kPrompts, 0);
  std::vector<Matrix> first_out(kPrompts);
  std::string events0;
  ptc::EventCounter pass_events;
  auto pass = [&](nn::GemmBackend& be, SpanRecorder* rec, std::size_t i) {
    const std::size_t p = i % kPrompts;
    const ptc::EventCounter e0 = be.events();
    Matrix o;
    {
      SpanGuard span(rec, "forward", i);
      o = st->model.forward(st->prompts[p], be);
    }
    pass_events = be.events() - e0;
    ++out.attempted;
    if (!all_finite(o)) ++out.failed;
    const std::uint64_t d = fnv1a(o);
    if (events0.empty()) events0 = events_key(pass_events);
    if (first_out[p].size() == 0) {
      first_out[p] = std::move(o);
      digest[p] = d;
    } else {
      out.gate(d == digest[p], "forward " + std::to_string(i) + " bit-equal to prompt " +
                                   std::to_string(p) + "'s first forward");
    }
    out.gate(events_key(pass_events) == events0,
             "forward " + std::to_string(i) + " events equal forward 0's");
  };

  std::vector<double> untraced, traced;
  SpanRecorder rec;
  std::optional<TimingBackend> tb;
  const nn::OperandCacheStats cache0 = st->backend->operand_cache()->stats();
  if (!trace) {
    untraced = timed_passes(seconds, kPrompts, [&](std::size_t i) { pass(*st->backend, nullptr, i); });
  } else {
    // Traced and untraced forwards alternate, as in decode_long.
    tb.emplace(*st->backend, rec);
    st->register_roles(*tb);
    timed_passes(seconds, kPrompts, [&](std::size_t i) {
      std::int64_t t0 = now_ns();
      pass(*st->backend, nullptr, 2 * i);
      untraced.push_back(seconds_since(t0));
      t0 = now_ns();
      pass(*tb, &rec, 2 * i + 1);
      traced.push_back(seconds_since(t0));
    });
  }

  for (std::size_t p = 0; p < kPrompts; ++p) {
    out.gate(first_out[p].size() > 0 && all_finite(first_out[p]),
             "prompt " + std::to_string(p) + " outputs finite");
    out.note_sim("digest." + std::to_string(p), static_cast<double>(digest[p] >> 11));
  }
  // Correctness against fp64 on identical weights and inputs (prompt 0;
  // one fp64 forward costs ~3 photonic ones).
  const std::int64_t ref_t0 = now_ns();
  nn::ReferenceBackend ref;
  const double cos = cosine(first_out[0], st->model.forward(st->prompts[0], ref));
  std::printf("fp64 reference forward: %.3f s\n", seconds_since(ref_t0));
  out.gate(cos >= kPrefillCosineFloor, "cosine_vs_fp64 " + std::to_string(cos) + " >= floor");
  out.note_sim("cosine_vs_fp64", cos);

  if (!trace) {
    add_end_to_end(out, setup_s, tokens, untraced, pass_events,
                   price_uj(pass_events, arch::SystemVariant::kPdacBased) / tokens);
    return out;
  }
  const double traced_tokens = tokens * static_cast<double>(traced.size());
  const double forward_ms = static_cast<double>(rec.total_ns("forward")) * 1e-6;
  NnTrace nt{&*tb, &rec, traced_tokens, forward_ms, tokens / median(untraced),
             tokens / median(traced), cache0};
  add_nn_layer_metrics(out, nt, {forward_ms});
  out.add_sim("nn.cosine_vs_fp64", cos, "ratio");
  complete_per_layer(out);
  if (!rec.write_csv(trace_dir + "/prefill_bert.spans.csv")) {
    std::fprintf(stderr, "could not write spans to %s\n", trace_dir.c_str());
  }
  return out;
}

// ---- serve_storm ---------------------------------------------------------------

constexpr std::size_t kServeD = 128;
constexpr std::size_t kServeBackends = 3;
constexpr std::size_t kServeModels = 2;
constexpr std::size_t kServeRequests = 160;
constexpr double kServeInterarrival = 512.0;  ///< mean arrival gap [cycles]
constexpr double kStormRate = 0.3;
/// Fabrication and storm draws are the modelled hardware and the arrival
/// schedule is the traffic shape; both are fixed for every seed.  The
/// seed draws the weights and every request's activation row.
constexpr std::uint64_t kHardwareSeed = 2033;
constexpr std::uint64_t kTrafficSeed = 2044;

serve::BackendPoolConfig pool_config() {
  serve::BackendPoolConfig cfg;
  cfg.backends = kServeBackends;
  cfg.bank.pdac.bits = 8;
  cfg.bank.wavelengths = 8;
  cfg.bank.variation.tia_gain_sigma = 0.01;
  cfg.bank.variation.bias_sigma = 0.002;
  cfg.bank.variation.vpi_drift_sigma = 0.005;
  cfg.bank.variation.seed = kHardwareSeed;
  cfg.guarded.array_rows = 8;
  cfg.guarded.array_cols = 8;
  cfg.retrim_budget = 2;
  cfg.retrim_window = 2048;
  faults::LaneBank probe(cfg.bank);
  cfg.guarded.path = faults::auto_execution_path(probe);
  cfg.quarantine.enabled = true;
  cfg.quarantine.unrecovered_products = 2;
  cfg.quarantine.fence_events = 3;
  cfg.quarantine.probe_backoff = 256;
  return cfg;
}

/// A fresh pool; with `storm`, every slot gets its own per-lane storm
/// (hard and drift faults, no global bias walk or laser droop).
std::unique_ptr<serve::BackendPool> build_pool(bool storm) {
  auto pool = std::make_unique<serve::BackendPool>(pool_config());
  if (storm) {
    for (std::size_t b = 0; b < pool->size(); ++b) {
      faults::FaultScheduleConfig fc;
      fc.lanes = pool->bank(b).lanes();
      fc.bits = 8;
      fc.horizon_steps = 512;
      fc.hard_fault_rate = 0.5 * kStormRate;
      fc.drift_fault_rate = kStormRate;
      fc.seed = kHardwareSeed + 101 * (b + 1);
      pool->attach_storm(b, faults::generate_fault_schedule(fc), 1);
    }
  }
  return pool;
}

serve::ServingConfig serving_config() {
  serve::ServingConfig cfg;
  cfg.max_batch = 4;
  cfg.max_queue = 32;
  return cfg;
}

std::vector<serve::Request> serve_requests(std::uint64_t seed, double interarrival) {
  serve::WorkloadConfig wl;
  wl.requests = kServeRequests;
  wl.mean_interarrival = interarrival;
  wl.d_model = kServeD;
  wl.models = kServeModels;
  wl.deadline_slack = 48.0;
  wl.nominal_token_cycles = 64;
  wl.seed = kTrafficSeed;
  std::vector<serve::Request> reqs = serve::generate_workload(wl);
  Rng rng(seed);
  for (serve::Request& r : reqs) {
    r.kv_attention = true;
    do {
      r.activation = rng.gaussian_vector(kServeD);
    } while (!serve::normalize_unit_max(r.activation));
  }
  return reqs;
}

struct ServeState {
  std::vector<nn::Linear> models;
  std::vector<serve::Request> requests;
  std::vector<serve::RequestRecord> reference;  ///< fault-free solo replay
  std::unique_ptr<serve::BackendPool> pool;     ///< fresh storm pool for the next pass
  double pool_build_s{0.0};

  explicit ServeState(std::uint64_t seed) : requests(serve_requests(seed, kServeInterarrival)) {
    Rng rng(seed ^ 0x5e27e5ull);  // the activations draw from `seed` itself
    models.reserve(kServeModels);
    for (std::size_t m = 0; m < kServeModels; ++m) {
      models.emplace_back(kServeD, kServeD);
      models.back().init_random(rng);
    }
    faults::LaneBank bank(pool_config().bank);
    faults::production_trim(bank);
    faults::GuardedBackend backend(bank, pool_config().guarded);
    reference = serve::run_reference(requests, models, backend);
    next_pool();
  }

  void next_pool() {
    const std::int64_t t0 = now_ns();
    pool = build_pool(true);
    pool_build_s = seconds_since(t0);
  }
};

double pool_energy_uj(const serve::ServingReport& rep) {
  double uj = 0.0;
  for (const serve::BackendServeStats& b : rep.backends) {
    uj += price_uj(b.events, arch::SystemVariant::kPdacBased);
    uj += price_uj(b.health.checksum_events, arch::SystemVariant::kPdacBased);
  }
  return uj;
}

ptc::EventCounter pool_events(const serve::ServingReport& rep) {
  ptc::EventCounter e;
  for (const serve::BackendServeStats& b : rep.backends) e += b.events + b.health.checksum_events;
  return e;
}

/// Everything a serving pass simulates: verdict counts, timing, every
/// request's digest and every backend's events.
std::string report_key(const serve::ServingReport& rep) {
  std::string k;
  for (const std::size_t v : {rep.completed, rep.shed, rep.failed, rep.tokens_emitted,
                              static_cast<std::size_t>(rep.makespan), rep.products}) {
    k.append(std::to_string(v)).push_back('/');
  }
  for (const serve::RequestRecord& r : rep.records) k.append(std::to_string(r.digest)).push_back('/');
  for (const serve::BackendServeStats& b : rep.backends) {
    k.append(events_key(b.events)).push_back('/');
    k.append(events_key(b.health.checksum_events)).push_back('/');
  }
  return k;
}

/// SLO: a request meets it when it completes with TTFT and mean token gap
/// inside these limits; shed and failed requests miss.  The rate metric is
/// the highest of kSloGaps' arrival rates at which kSloShare of the
/// requests meet it.
constexpr double kSloTtftCycles = 2048.0;
constexpr double kSloGapCycles = 512.0;
constexpr double kSloShare = 0.9;
constexpr double kSloGaps[] = {2048.0, 1024.0, 512.0, 256.0};  ///< mean arrival gaps [cycles]
double slo_share(const std::vector<serve::Request>& reqs, const serve::ServingReport& rep) {
  std::size_t met = 0;
  for (std::size_t q = 0; q < reqs.size(); ++q) {
    const serve::RequestRecord& r = rep.records[q];
    if (r.verdict != serve::Verdict::kCompleted) continue;
    const double ttft = static_cast<double>(r.first_token_at - reqs[q].arrival);
    const double gap = r.tokens_done > 1 ? static_cast<double>(r.finished_at - r.first_token_at) /
                                               static_cast<double>(r.tokens_done - 1)
                                         : 0.0;
    if (ttft <= kSloTtftCycles && gap <= kSloGapCycles) ++met;
  }
  return static_cast<double>(met) / static_cast<double>(reqs.size());
}

Outcome run_serve_storm(std::uint64_t seed, double seconds, bool trace,
                        const std::string& trace_dir) {
  Outcome out;
  std::unique_ptr<ServeState> st;
  const double setup_s = timed_setup(15, st, [&] { return std::make_unique<ServeState>(seed); });
  const std::size_t n = st->requests.size();

  // Fault-free gate: the pool sheds nothing and every digest equals the
  // solo reference replay.
  {
    auto clean_pool = build_pool(false);
    serve::ServingEngine engine(*clean_pool, st->models, serving_config());
    const serve::ServingReport clean = engine.run(st->requests);
    std::size_t mismatches = 0;
    for (std::size_t q = 0; q < n; ++q) {
      if (clean.records[q].digest != st->reference[q].digest) ++mismatches;
    }
    out.gate(clean.completed == n && clean.reconciled(n),
             "fault-free pool completes all " + std::to_string(n) + " requests");
    out.gate(mismatches == 0, "fault-free digests equal run_reference (" +
                                  std::to_string(mismatches) + " mismatches)");
  }

  serve::ServingReport rep;
  std::string key0;
  std::vector<double> build_ms;
  auto pass = [&](std::size_t i) {
    serve::ServingEngine engine(*st->pool, st->models, serving_config());
    rep = engine.run(st->requests);
    const std::string key = report_key(rep);
    if (key0.empty()) key0 = key;
    else out.gate(key == key0, "pass " + std::to_string(i) + " bit-equal to pass 0");
    out.attempted += n;
    out.failed += rep.shed + rep.failed;
    out.gate(rep.reconciled(n), "pass " + std::to_string(i) + " reconciles: " +
                                    std::to_string(rep.completed) + "+" +
                                    std::to_string(rep.shed) + "+" +
                                    std::to_string(rep.failed) + " == " + std::to_string(n));
  };
  // Each pass needs a fresh storm pool; building it is not timed as part
  // of the pass.  Traced runs also time a fault-free pass after each storm
  // pass: the difference is the host cost of the storms and their recovery.
  SpanRecorder rec;
  SpanRecorder* spans = trace ? &rec : nullptr;
  std::vector<double> pass_s, clean_s;
  const std::int64_t start = now_ns();
  while (pass_s.size() < 3 || seconds_since(start) < seconds) {
    const std::size_t i = pass_s.size();
    {
      SpanGuard span(spans, "pool_build", i);
      st->next_pool();
    }
    build_ms.push_back(st->pool_build_s * 1e3);
    std::int64_t t0 = now_ns();
    {
      SpanGuard span(spans, "pass", i);
      pass(i);
    }
    pass_s.push_back(seconds_since(t0));
    if (!trace) continue;
    auto clean_pool = build_pool(false);
    t0 = now_ns();
    SpanGuard span(spans, "clean_pass", i);
    serve::ServingEngine engine(*clean_pool, st->models, serving_config());
    (void)engine.run(st->requests);
    clean_s.push_back(seconds_since(t0));
  }

  std::size_t exact = 0;
  for (std::size_t q = 0; q < n; ++q) {
    if (rep.records[q].verdict == serve::Verdict::kCompleted &&
        rep.records[q].digest == st->reference[q].digest) {
      ++exact;
    }
  }
  const double tokens = static_cast<double>(rep.tokens_emitted);
  const ptc::EventCounter ev = pool_events(rep);
  out.note_sim("report", static_cast<double>(hash_string(key0) >> 11));
  out.note_sim("exact", static_cast<double>(exact));
  if (!trace) {
    add_end_to_end(out, setup_s, tokens, pass_s, ev,
                   pool_energy_uj(rep) / static_cast<double>(rep.goodput_tokens));
    std::printf("completed %zu shed %zu failed %zu, exact %zu, tokens %zu\n", rep.completed,
                rep.shed, rep.failed, exact, rep.tokens_emitted);
    return out;
  }

  // Per-layer: faults and serve counters of the last (identical) pass.
  faults::HealthSnapshot h;
  double recovery_uj = 0.0, busy = 0.0;
  std::uint64_t kv_appends = 0, kv_products = 0;
  for (const serve::BackendServeStats& b : rep.backends) {
    h.tiles_checked += b.health.tiles_checked;
    h.mismatched_tiles += b.health.mismatched_tiles;
    h.sec_corrections += b.health.sec_corrections;
    h.retries += b.health.retries;
    h.retrims += b.health.retrims;
    h.fences += b.health.fences;
    h.unrecovered += b.health.unrecovered;
    h.probe_events += b.health.probe_events;
    h.drift_tiles += b.health.drift_tiles;
    recovery_uj += price_uj(b.health.retry_events, arch::SystemVariant::kPdacBased);
    busy += static_cast<double>(b.busy_cycles) / static_cast<double>(rep.makespan);
    kv_appends += b.kv.appends;
    kv_products += b.kv.appends + b.kv.rebuilds + b.kv.misses;
  }
  const auto cnt = [](std::size_t v) { return static_cast<double>(v); };
  out.add_sim("ptc.macs_per_tok", static_cast<double>(ev.macs) / tokens, "count");
  out.add_sim("ptc.modulations_per_tok", static_cast<double>(ev.modulation_events) / tokens,
              "count");
  out.add_sim("ptc.adc_per_tok", static_cast<double>(ev.adc_events) / tokens, "count");
  out.add_sim("ptc.cycles_per_tok", static_cast<double>(ev.cycles) / tokens, "cycles");
  out.add("faults.storm_ms_per_tok", (median(pass_s) - median(clean_s)) * 1e3 / tokens, "ms");
  out.add_sim("faults.tiles_checked", cnt(h.tiles_checked), "count");
  out.add_sim("faults.mismatch_share", h.tile_mismatch_rate(), "ratio");
  out.add_sim("faults.sec_corrections", cnt(h.sec_corrections), "count");
  out.add_sim("faults.retries", cnt(h.retries), "count");
  out.add_sim("faults.retrims", cnt(h.retrims), "count");
  out.add_sim("faults.fences", cnt(h.fences), "count");
  out.add_sim("faults.unrecovered", cnt(h.unrecovered), "count");
  out.add_sim("faults.probe_events", cnt(h.probe_events), "count");
  out.add_sim("faults.drift_tiles", cnt(h.drift_tiles), "count");
  out.add_sim("faults.recovery_uj_share", recovery_uj / pool_energy_uj(rep), "ratio");

  std::vector<double> wait, ttft, gaps;
  for (std::size_t q = 0; q < n; ++q) {
    const serve::RequestRecord& r = rep.records[q];
    if (r.tokens_done == 0) continue;
    wait.push_back(static_cast<double>(r.first_token_at - r.admitted_at));
    ttft.push_back(static_cast<double>(r.first_token_at - st->requests[q].arrival));
  }
  for (const std::uint64_t g : rep.token_gaps) gaps.push_back(static_cast<double>(g));
  out.add_sim("serve.queue_wait_p50_cycles", median(wait), "cycles");
  out.add_sim("serve.rows_per_product", tokens / cnt(rep.products), "count");
  out.add_sim("serve.backend_util", busy / cnt(rep.backends.size()), "ratio");
  out.add_sim("serve.throttled_share", cnt(rep.throttled_products) / cnt(rep.products), "ratio");
  out.add_sim("serve.quarantines", cnt(rep.quarantines), "count");
  out.add_sim("serve.canary_probes", cnt(rep.canary_probes), "count");
  out.add_sim("serve.shed_share", cnt(rep.shed) / cnt(n), "ratio");
  out.add_sim("serve.kv_append_share",
              static_cast<double>(kv_appends) / static_cast<double>(kv_products), "ratio");
  out.add("serve.pool_build_ms", median(build_ms), "ms");
  out.add_sim("serve.exact_request_share", cnt(exact) / cnt(rep.completed), "ratio");
  const Tail tt = tail_of(ttft), tg = tail_of(gaps);
  out.add_sim("serve.ttft_p50_cycles", median(ttft), "cycles");
  out.add_sim("serve.ttft_tail_cycles", tt.value, "cycles");
  out.add_sim("serve.ttft_tail_pct", tt.pct, "%");
  out.add_sim("serve.ttft_samples", cnt(tt.n), "count");
  out.add_sim("serve.token_gap_p50_cycles", median(gaps), "cycles");
  out.add_sim("serve.token_gap_tail_cycles", tg.value, "cycles");
  out.add_sim("serve.token_gap_tail_pct", tg.pct, "%");
  out.add_sim("serve.token_gap_samples", cnt(tg.n), "count");
  std::size_t on_time = 0;
  for (const serve::RequestRecord& r : rep.records) {
    if (r.verdict == serve::Verdict::kCompleted && !r.late) ++on_time;
  }
  out.add_sim("serve.goodput_share", cnt(on_time) / cnt(n), "ratio");

  double slo_rate = 0.0;
  for (const double gap : kSloGaps) {
    const std::vector<serve::Request> reqs = serve_requests(seed, gap);
    auto pool = build_pool(true);
    serve::ServingEngine engine(*pool, st->models, serving_config());
    const double share = slo_share(reqs, engine.run(reqs));
    std::printf("slo: mean gap %.0f cycles (%.4f req/Mcycle): share %.4f\n", gap, 1e6 / gap,
                share);
    if (share >= kSloShare) slo_rate = 1e6 / gap;
  }
  out.add_sim("serve.slo_rate_req_per_mcycle", slo_rate, "1/Mcycle");
  out.add("trace.spans", static_cast<double>(rec.spans().size()), "count");
  complete_per_layer(out);
  if (!rec.write_csv(trace_dir + "/serve_storm.spans.csv")) {
    std::fprintf(stderr, "could not write spans to %s\n", trace_dir.c_str());
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") trace = v == "1";
    else if (k == "--trace-dir") trace_dir = v;
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  std::printf("workload %s seed %llu seconds %.1f trace %d tier %s isa %s threads 1\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0,
              tier_name(), pdac::simd::has_fast_path() ? "avx2+fma" : "portable");
  Outcome out;
  if (workload == "decode_long") {
    out = run_decode_long(seed, seconds, trace, trace_dir);
  } else if (workload == "prefill_bert") {
    out = run_prefill_bert(seed, seconds, trace, trace_dir);
  } else if (workload == "serve_storm") {
    out = run_serve_storm(seed, seconds, trace, trace_dir);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  std::size_t passed = 0;
  for (const std::string& g : out.gates) {
    if (g.rfind("PASS", 0) == 0) ++passed;
    else std::printf("%s\n", g.c_str());
  }
  std::printf("gates: %zu of %zu passed\n", passed, out.gates.size());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"sim_signature\": "
              "\"%016llx\", \"metrics\": {",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(hash_string(out.sim)));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                out.metrics[i].name.c_str(), out.metrics[i].value, out.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
