#include "nn/backend.hpp"

#include "common/simd.hpp"
#include "converters/quantizer.hpp"

namespace pdac::nn {

ptc::GemmConfig fastest_gemm_config(const core::ModulatorDriver& driver, ptc::GemmConfig cfg) {
  // Quant precondition: the driver's encode transfer must land EXACTLY on
  // the quantizer grid for every representable code — the bitwise test
  // PhotonicDotEngine::encode_on_quant_grid runs at construction, probed
  // here without building an engine.  Transcendental transfers (ideal-DAC
  // sin², P-DAC) fail on the first code and fall through to the double
  // tiers.
  const converters::Quantizer quant(driver.bits());
  bool on_grid = true;
  for (std::int32_t c = -quant.max_code(); c <= quant.max_code() && on_grid; ++c) {
    const double v = quant.decode(c);
    if (driver.encode(v) != v) on_grid = false;
  }
  if (on_grid) {
    cfg.path = ptc::ExecutionPath::kKernelQuant;
  } else if (simd::has_fast_path()) {
    cfg.path = ptc::ExecutionPath::kKernelSimd;
  } else {
    cfg.path = ptc::ExecutionPath::kKernel;
  }
  return cfg;
}

Matrix ReferenceBackend::matmul(const Matrix& a, const Matrix& b) {
  events_.macs += a.rows() * a.cols() * b.cols();
  return matmul_reference(a, b);
}

PhotonicBackend::PhotonicBackend(std::unique_ptr<core::ModulatorDriver> driver,
                                 ptc::GemmConfig cfg, PreparedStoreConfig cache_cfg,
                                 PreparedStoreConfig kv_cfg)
    : driver_(std::move(driver)), gemm_(*driver_, cfg), cache_(cache_cfg),
      kv_cache_(kv_cfg) {}

void PhotonicBackend::fold_guard(const ptc::GuardOutcome& outcome) {
  if (!outcome.enabled) return;
  ++guard_.products;
  guard_.tiles_checked += outcome.tiles_checked;
  guard_.mismatched_tiles += outcome.mismatched_tiles;
  guard_.checksum_events += outcome.checksum_events;
  ptc::fold_worst(outcome.worst_residual, outcome.worst_tolerance, guard_.worst_residual,
                  guard_.worst_tolerance);
}

Matrix PhotonicBackend::matmul(const Matrix& a, const Matrix& b) {
  ptc::GemmResult r = gemm_.multiply(a, b);
  events_ += r.events;
  fold_guard(r.guard);
  return std::move(r.c);
}

Matrix PhotonicBackend::run_repairing(const Matrix& a, const ptc::PreparedOperand& pb,
                                      PreparedStore& store, std::uint64_t id,
                                      const std::function<Resident()>& reobtain) {
  ptc::GemmResult r = gemm_.multiply_prepared(a, pb);
  events_ += r.events;
  fold_guard(r.guard);
  if (r.guard.enabled && !r.guard.clean()) {
    // The driver is immutable, so current and golden encodings coincide
    // and a guarded mismatch can only mean the resident operand's memory
    // was corrupted after insertion.  Repair: drop the entry, rebuild it
    // from the source and rerun once (honestly re-charged).
    ++guard_.cache_repairs;
    store.erase(id);
    const Resident fresh = reobtain();
    r = gemm_.multiply_prepared(a, *fresh);
    events_ += r.events;
    fold_guard(r.guard);
  }
  return std::move(r.c);
}

Matrix PhotonicBackend::matmul_cached(const Matrix& a, const Matrix& b,
                                      const WeightHandle& weight) {
  // The driver (and therefore the encode LUT and lane mask) is fixed at
  // construction, so the encoder epoch is a constant 0 and the packing
  // is empty — entries only go stale when the weight's contents change.
  return run_repairing(a, *cache_.obtain(weight, 0, {}, [&] { return gemm_.prepare_b(b); }),
                       cache_, weight.id, [&] {
                         auto fresh = std::make_shared<ptc::PreparedOperand>(gemm_.prepare_b(b));
                         cache_.insert(weight.id, weight.version, fresh);
                         return fresh;
                       });
}

std::shared_ptr<ptc::PreparedOperand> PhotonicBackend::obtain_kv(const Matrix& kv,
                                                                 const KvHandle& handle) {
  // Same constant epoch as matmul_cached; residency only goes stale
  // through the builder's append refusals (scale outgrown, shrink).
  const ptc::SourceForm form = source_form(handle.axis);
  return kv_cache_.extend(
      handle.id, [&](ptc::PreparedOperand& pb) { return gemm_.append(pb, kv, form); },
      [&] { return gemm_.prepare(kv, form); });
}

Matrix PhotonicBackend::matmul_kv(const Matrix& a, const Matrix& kv,
                                  const KvHandle& handle) {
  return run_repairing(a, *obtain_kv(kv, handle), kv_cache_, handle.id,
                       [&] { return obtain_kv(kv, handle); });
}

std::string PhotonicBackend::name() const { return "photonic/" + driver_->name(); }

std::unique_ptr<GemmBackend> make_reference_backend() {
  return std::make_unique<ReferenceBackend>();
}

std::unique_ptr<GemmBackend> make_photonic_pdac_backend(int bits, ptc::GemmConfig cfg,
                                                        PreparedStoreConfig cache_cfg) {
  return std::make_unique<PhotonicBackend>(core::make_pdac_driver(bits), cfg, cache_cfg);
}

std::unique_ptr<GemmBackend> make_photonic_ideal_dac_backend(int bits, ptc::GemmConfig cfg,
                                                             PreparedStoreConfig cache_cfg) {
  return std::make_unique<PhotonicBackend>(core::make_ideal_dac_driver(bits), cfg, cache_cfg);
}

}  // namespace pdac::nn
