// Unit and property tests for the symmetric fixed-point quantizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "converters/quantizer.hpp"

namespace {

using namespace pdac;
using namespace pdac::converters;

TEST(Quantizer, PaperExample0x40) {
  // Paper §III-C: "0x40 in an 8-bit system … 0x40/(2⁷−1) = 0.5".
  const Quantizer q(8);
  EXPECT_NEAR(q.decode(0x40), 64.0 / 127.0, 1e-15);
  EXPECT_NEAR(q.decode(0x40), 0.5, 0.004);
}

TEST(Quantizer, MaxCodeMatchesBitWidth) {
  EXPECT_EQ(Quantizer(4).max_code(), 7);
  EXPECT_EQ(Quantizer(8).max_code(), 127);
  EXPECT_EQ(Quantizer(12).max_code(), 2047);
}

TEST(Quantizer, EncodeEndpoints) {
  const Quantizer q(8);
  EXPECT_EQ(q.encode(1.0), 127);
  EXPECT_EQ(q.encode(-1.0), -127);
  EXPECT_EQ(q.encode(0.0), 0);
}

TEST(Quantizer, EncodeSaturatesOutOfRange) {
  const Quantizer q(8);
  EXPECT_EQ(q.encode(2.5), 127);
  EXPECT_EQ(q.encode(-7.0), -127);
}

TEST(Quantizer, EncodeRoundsToNearest) {
  const Quantizer q(4);  // max code 7, step 1/7
  EXPECT_EQ(q.encode(0.49 / 7.0), 0);
  EXPECT_EQ(q.encode(0.51 / 7.0), 1);
}

TEST(Quantizer, DecodeRejectsOutOfRangeCode) {
  const Quantizer q(4);
  EXPECT_THROW((void)q.decode(8), PreconditionError);
  EXPECT_THROW((void)q.decode(-8), PreconditionError);
}

TEST(Quantizer, RejectsBadBitWidths) {
  EXPECT_THROW((void)Quantizer(1), PreconditionError);
  EXPECT_THROW((void)Quantizer(17), PreconditionError);
}

TEST(Quantizer, QuantizeIsIdempotent) {
  const Quantizer q(6);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const double r = rng.uniform(-1.0, 1.0);
    const double once = q.quantize(r);
    EXPECT_DOUBLE_EQ(q.quantize(once), once);
  }
}

TEST(Quantizer, SymmetricAroundZero) {
  const Quantizer q(8);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double r = rng.uniform(0.0, 1.0);
    EXPECT_DOUBLE_EQ(q.quantize(-r), -q.quantize(r));
  }
}

TEST(MaxAbsScale, FindsLargestMagnitude) {
  const std::vector<double> v{0.1, -2.5, 1.0};
  EXPECT_DOUBLE_EQ(max_abs_scale(v), 2.5);
}

TEST(MaxAbsScale, AllZeroFallsBackToOne) {
  const std::vector<double> v{0.0, 0.0};
  EXPECT_DOUBLE_EQ(max_abs_scale(v), 1.0);
  EXPECT_DOUBLE_EQ(max_abs_scale({}), 1.0);
}

TEST(QuantizeVector, RoundTripWithinHalfStep) {
  Rng rng(6);
  const Quantizer q(8);
  const auto values = rng.uniform_vector(100, -3.0, 3.0);
  double scale = 0.0;
  const auto codes = quantize_vector(values, q, &scale);
  const auto back = dequantize_vector(codes, q, scale);
  const double half_step = 0.5 * scale / static_cast<double>(q.max_code());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(back[i], values[i], half_step + 1e-12) << "i=" << i;
  }
}

TEST(Quantizer, NegativeZeroEncodesToZero) {
  const Quantizer q(8);
  EXPECT_EQ(q.encode(-0.0), 0);
  EXPECT_EQ(q.quantize(-0.0), 0.0);
  EXPECT_EQ(q.decode(0), 0.0);
}

TEST(Quantizer, SnapToCodeAcceptsExactlyTheGrid) {
  const Quantizer q(8);
  for (std::int32_t c = -q.max_code(); c <= q.max_code(); ++c) {
    std::int32_t code = -1;
    EXPECT_TRUE(q.snap_to_code(q.decode(c), &code)) << "code " << c;
    EXPECT_EQ(code, c);
  }
  // Midpoints between grid points, out-of-range values and NaN are all
  // off-grid — the integer tier's precondition must reject them.
  EXPECT_FALSE(q.snap_to_code(0.5 * (q.decode(3) + q.decode(4)), nullptr));
  EXPECT_FALSE(q.snap_to_code(2.0, nullptr));
  EXPECT_FALSE(q.snap_to_code(-1.0000001, nullptr));
  EXPECT_FALSE(q.snap_to_code(std::nan(""), nullptr));
  // ±1 and -0.0 are grid points (max code / zero).
  std::int32_t code = 0;
  EXPECT_TRUE(q.snap_to_code(1.0, &code));
  EXPECT_EQ(code, q.max_code());
  EXPECT_TRUE(q.snap_to_code(-0.0, &code));
  EXPECT_EQ(code, 0);
}

TEST(Quantizer, EncodeMatchesLroundEverywhere) {
  // encode rounds without libm; the reference is the lround formulation
  // (clamp to [−1, 1], lround(r·max_code)), with NaN defined as code 0.
  // Swept over every width: random inputs, every half-code point ±3 ulps
  // (where rounding direction flips), ±0, ±inf and NaN.
  const auto reference = [](const Quantizer& q, double r) -> std::int32_t {
    if (std::isnan(r)) return 0;
    return static_cast<std::int32_t>(std::lround(std::clamp(r, -1.0, 1.0) * q.max_code()));
  };
  Rng rng(2024);
  std::size_t mismatches = 0;
  std::size_t checked = 0;
  const auto check = [&](const Quantizer& q, double r) {
    ++checked;
    if (q.encode(r) != reference(q, r)) {
      if (++mismatches <= 10) ADD_FAILURE() << "bits " << q.bits() << " r=" << r;
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (int bits = 2; bits <= 16; ++bits) {
    const Quantizer q(bits);
    for (int i = 0; i < 140000; ++i) check(q, rng.uniform(-1.5, 1.5));
    const double mc = static_cast<double>(q.max_code());
    for (std::int32_t c = -q.max_code() - 1; c <= q.max_code(); ++c) {
      double r = (static_cast<double>(c) + 0.5) / mc;
      for (int u = 0; u < 3; ++u) r = std::nextafter(r, -inf);
      for (int u = 0; u < 7; ++u, r = std::nextafter(r, inf)) check(q, r);
    }
    for (const double r : {0.0, -0.0, inf, -inf, std::nan("")}) check(q, r);
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked;
}

// --- property sweep over bit widths -----------------------------------------
class QuantizerRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerRoundTrip, EveryCodeSurvivesDecodeEncode) {
  const Quantizer q(GetParam());
  for (std::int32_t c = -q.max_code(); c <= q.max_code(); ++c) {
    EXPECT_EQ(q.encode(q.decode(c)), c) << "code " << c;
  }
}

TEST_P(QuantizerRoundTrip, SymmetricSaturationAtMaxCode) {
  const Quantizer q(GetParam());
  // ±(2^(b−1)−1): symmetric two's-complement-style range, no −2^(b−1).
  EXPECT_EQ(q.max_code(), (1 << (GetParam() - 1)) - 1);
  EXPECT_EQ(q.encode(1.0), q.max_code());
  EXPECT_EQ(q.encode(-1.0), -q.max_code());
  EXPECT_EQ(q.encode(1e9), q.max_code());
  EXPECT_EQ(q.encode(-1e9), -q.max_code());
  // One representable step inside the clamp boundary still rounds up to
  // the saturated code.
  EXPECT_EQ(q.encode(1.0 - 0.25 * q.step()), q.max_code());
  EXPECT_EQ(q.encode(-1.0 + 0.25 * q.step()), -q.max_code());
}

TEST_P(QuantizerRoundTrip, QuantizationErrorBoundedByHalfStep) {
  const Quantizer q(GetParam());
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const double r = rng.uniform(-1.0, 1.0);
    EXPECT_LE(std::abs(q.quantize(r) - r), 0.5 * q.step() + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, QuantizerRoundTrip,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16));

}  // namespace
