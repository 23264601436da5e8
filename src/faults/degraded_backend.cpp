#include "faults/degraded_backend.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "converters/quantizer.hpp"
#include "ptc/tile_scheduler.hpp"

namespace pdac::faults {

DegradedBackend::DegradedBackend(const LaneBank& bank, DegradedBackendConfig cfg)
    : bank_(bank),
      cfg_(cfg),
      pool_(std::make_unique<ThreadPool>(cfg.threads)),
      cache_(cfg.cache) {
  PDAC_REQUIRE(cfg_.array_rows >= 1 && cfg_.array_cols >= 1,
               "DegradedBackend: array dimensions must be positive");
}

double DegradedBackend::encode_lane(std::size_t rail, std::size_t channel, double r) const {
  // Stale table (epoch moved since the entry ensure()) falls back to the
  // live model: a missed ensure() costs speed, never correctness.
  if (cfg_.use_lane_table && table_.fresh(bank_)) return table_.encode(rail, channel, r);
  return bank_.encode(rail, channel, r);
}

ptc::OperandBuilder DegradedBackend::builder(std::vector<std::size_t> channels) const {
  ptc::OperandLayout layout{bank_.epoch(), std::move(channels), false, false, 0};
  return ptc::OperandBuilder(
      std::move(layout),
      [this](const ptc::EncodeSpan& s) {
        for (std::size_t i = 0; i < s.norm.size(); ++i) {
          s.encoded[i] = encode_lane(1, s.channels[(s.p0 + i) % s.channels.size()], s.norm[i]);
        }
      },
      *pool_, staging_);
}

Matrix DegradedBackend::matmul(const Matrix& a, const Matrix& b) {
  PDAC_REQUIRE(a.cols() == b.rows(), "DegradedBackend: inner dimensions must agree");
  if (cfg_.use_lane_table) table_.ensure(bank_);
  // Snapshot the usable channels once per product: the self-test fences
  // lanes between matmuls, not inside one.
  std::vector<std::size_t> channels = bank_.surviving_channels();
  if (channels.empty()) return Matrix(a.rows(), b.cols());
  return run_prepared(a, builder(std::move(channels)).prepare(b, ptc::SourceForm::kB));
}

Matrix DegradedBackend::matmul_cached(const Matrix& a, const Matrix& b,
                                      const nn::WeightHandle& weight) {
  PDAC_REQUIRE(a.cols() == b.rows(), "DegradedBackend: inner dimensions must agree");
  if (cfg_.use_lane_table) table_.ensure(bank_);
  const std::vector<std::size_t> channels = bank_.surviving_channels();
  if (channels.empty()) return Matrix(a.rows(), b.cols());
  // The store refuses entries whose epoch OR packing moved — the latter
  // catches a fence applied directly to a lane without bump_epoch().
  return run_prepared(a, *cache_.obtain(weight, bank_.epoch(), channels, [&] {
    return builder(channels).prepare(b, ptc::SourceForm::kB);
  }));
}

Matrix DegradedBackend::run_prepared(const Matrix& a, const ptc::PreparedOperand& pb) {
  const std::size_t k = a.cols();
  const std::size_t nl = pb.channels.size();

  // A-side pipeline through the x-rail lanes, fresh every product.
  const double a_scale = converters::max_abs_scale(a.data());
  Matrix an(a.rows(), k);
  for (std::size_t i = 0; i < a.size(); ++i) an.data()[i] = a.data()[i] / a_scale;
  Matrix ae(a.rows(), k);
  pool_->parallel_for(a.rows(), [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t r = begin; r < end; ++r) {
      const auto src = an.row(r);
      auto dst = ae.row(r);
      for (std::size_t p = 0; p < k; ++p) {
        dst[p] = encode_lane(0, pb.channels[p % nl], src[p]);
      }
    }
  });

  Matrix c(a.rows(), pb.cols);
  const double rescale = a_scale * pb.scale;
  const std::vector<ptc::Tile> tiles =
      ptc::partition_tiles(a.rows(), pb.cols, cfg_.array_rows, cfg_.array_cols);
  ptc::for_each_tile(*pool_, tiles, [&](std::size_t t, std::size_t) {
    const ptc::Tile& tile = tiles[t];
    for (std::size_t i = tile.row0; i < tile.row0 + tile.rows; ++i) {
      const auto x = ae.row(i);
      for (std::size_t j = tile.col0; j < tile.col0 + tile.cols; ++j) {
        const auto y = pb.encoded.row(j);
        // Ascending p is the serial chunk order (base, then in-chunk
        // lane), so the accumulation is bit-identical to the serial path.
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) acc += x[p] * y[p];
        c(i, j) = acc * rescale;
      }
    }
  });
  for (const ptc::Tile& tile : tiles) events_ += ptc::tile_events(tile, k, nl);
  return c;
}

}  // namespace pdac::faults
