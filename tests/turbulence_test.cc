#include <gtest/gtest.h>

#include <cmath>

#include "common/coding.h"
#include "fileserver/file_server.h"
#include "tbf_reference.h"
#include "turbulence/field.h"
#include "turbulence/tbf.h"

namespace easia::turb {
namespace {

TEST(ComponentTest, Names) {
  EXPECT_EQ(*ComponentFromName("u"), Component::kU);
  EXPECT_EQ(*ComponentFromName("p"), Component::kP);
  EXPECT_FALSE(ComponentFromName("q").ok());
  EXPECT_EQ(ComponentName(Component::kW), "w");
}

TEST(TaylorGreenTest, InitialConditionAtOrigin) {
  FieldPoint pt = TaylorGreen(M_PI / 2, 0, 0, 0, 0.01);
  EXPECT_NEAR(pt.u, 1.0, 1e-12);  // sin(pi/2)cos(0)cos(0)
  EXPECT_NEAR(pt.v, 0.0, 1e-12);
  EXPECT_NEAR(pt.w, 0.0, 1e-12);
}

TEST(TaylorGreenTest, DecaysInTime) {
  FieldPoint early = TaylorGreen(1.0, 0.5, 0.25, 0.0, 0.1);
  FieldPoint late = TaylorGreen(1.0, 0.5, 0.25, 10.0, 0.1);
  EXPECT_LT(std::fabs(late.u), std::fabs(early.u));
  EXPECT_NEAR(late.u / early.u, std::exp(-2.0 * 0.1 * 10.0), 1e-12);
}

TEST(FieldTest, GenerateAndSample) {
  Field field = Field::Generate(8, 0.0, 0.01);
  EXPECT_EQ(field.n(), 8u);
  // Spot-check a grid point against the analytic solution.
  double h = 2 * M_PI / 8;
  FieldPoint expected = TaylorGreen(2 * h, 3 * h, 5 * h, 0.0, 0.01);
  EXPECT_NEAR(field.At(Component::kU, 2, 3, 5), expected.u, 1e-12);
  EXPECT_NEAR(field.At(Component::kP, 2, 3, 5), expected.p, 1e-12);
}

TEST(FieldTest, WIsIdenticallyZero) {
  Field field = Field::Generate(8, 0.3, 0.01);
  FieldStats s = field.Stats(Component::kW);
  EXPECT_DOUBLE_EQ(s.min, 0);
  EXPECT_DOUBLE_EQ(s.max, 0);
}

TEST(FieldTest, VelocityBoundsAndSymmetry) {
  Field field = Field::Generate(16, 0.0, 0.01);
  FieldStats u = field.Stats(Component::kU);
  EXPECT_LE(u.max, 1.0 + 1e-12);
  EXPECT_GE(u.min, -1.0 - 1e-12);
  // The Taylor-Green u field is antisymmetric: mean ~ 0.
  EXPECT_NEAR(u.mean, 0.0, 1e-12);
}

TEST(FieldTest, KineticEnergyDecays) {
  Field t0 = Field::Generate(12, 0.0, 0.05);
  Field t1 = Field::Generate(12, 2.0, 0.05);
  EXPECT_GT(t0.KineticEnergy(), t1.KineticEnergy());
  // E(t) = E(0) * exp(-4 nu t) exactly for this flow.
  EXPECT_NEAR(t1.KineticEnergy() / t0.KineticEnergy(),
              std::exp(-4.0 * 0.05 * 2.0), 1e-9);
}

TEST(FieldTest, KineticEnergyMatchesTheory) {
  // Volume average of u^2+v^2 over the periodic box is 1/4; E = 1/8.
  Field field = Field::Generate(32, 0.0, 0.01);
  EXPECT_NEAR(field.KineticEnergy(), 0.125, 1e-9);
}

TEST(FieldTest, VorticityPositive) {
  Field field = Field::Generate(16, 0.0, 0.01);
  EXPECT_GT(field.MaxVorticity(), 0.5);
}

TEST(SliceTest, ExtractsCorrectPlane) {
  Field field = Field::Generate(8, 0.0, 0.01);
  Slice2D slice = *field.Slice('x', 3, Component::kV);
  EXPECT_EQ(slice.n1, 8u);
  EXPECT_EQ(slice.n2, 8u);
  for (size_t j = 0; j < 8; ++j) {
    for (size_t k = 0; k < 8; ++k) {
      EXPECT_DOUBLE_EQ(slice.At(j, k), field.At(Component::kV, 3, j, k));
    }
  }
  Slice2D zslice = *field.Slice('z', 2, Component::kU);
  EXPECT_DOUBLE_EQ(zslice.At(4, 5), field.At(Component::kU, 4, 5, 2));
}

TEST(SliceTest, BoundsChecked) {
  Field field = Field::Generate(8, 0.0, 0.01);
  EXPECT_FALSE(field.Slice('x', 8, Component::kU).ok());
  EXPECT_FALSE(field.Slice('q', 0, Component::kU).ok());
}

TEST(SliceTest, PgmFormat) {
  Field field = Field::Generate(8, 0.0, 0.01);
  Slice2D slice = *field.Slice('z', 0, Component::kU);
  std::string pgm = slice.ToPgm();
  EXPECT_EQ(pgm.substr(0, 3), "P5\n");
  EXPECT_NE(pgm.find("8 8\n255\n"), std::string::npos);
  // Header + exactly 64 pixel bytes.
  size_t header_end = pgm.find("255\n") + 4;
  EXPECT_EQ(pgm.size() - header_end, 64u);
}

TEST(SliceTest, RawBytesIsDataReduction) {
  Field field = Field::Generate(16, 0.0, 0.01);
  Slice2D slice = *field.Slice('x', 0, Component::kU);
  // 3-D -> 2-D: reduction by the grid extent.
  EXPECT_EQ(slice.RawBytes() * 16,
            16ull * 16 * 16 * sizeof(double));
}

TEST(TbfTest, HeaderRoundTrip) {
  Field field = Field::Generate(8, 1.5, 0.02);
  std::string bytes = SerializeTbf(field, 7);
  auto header = ParseTbfHeader(bytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->n, 8u);
  EXPECT_EQ(header->timestep, 7u);
  EXPECT_DOUBLE_EQ(header->time, 1.5);
  EXPECT_DOUBLE_EQ(header->nu, 0.02);
}

TEST(TbfTest, FullRoundTrip) {
  Field field = Field::Generate(8, 0.5, 0.01);
  std::string bytes = SerializeTbf(field, 3);
  EXPECT_EQ(bytes.size(), Field::FileBytes(8) - 64 + 28);  // header is 28B
  auto back = ParseTbf(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->n(), 8u);
  EXPECT_DOUBLE_EQ(back->time(), 0.5);
  for (size_t i = 0; i < 8; i += 3) {
    for (size_t j = 0; j < 8; j += 3) {
      for (size_t k = 0; k < 8; k += 3) {
        EXPECT_DOUBLE_EQ(back->At(Component::kP, i, j, k),
                         field.At(Component::kP, i, j, k));
      }
    }
  }
}

TEST(TbfTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTbf("not a tbf").ok());
  Field field = Field::Generate(4, 0, 0.01);
  std::string bytes = SerializeTbf(field, 0);
  ASSERT_EQ(bytes.size(), 2076u);
  Status truncated = ParseTbf(bytes.substr(0, bytes.size() - 10)).status();
  EXPECT_TRUE(truncated.IsCorruption());
  EXPECT_EQ(truncated.message(), "TBF size mismatch: got 2066, want 2076");
  Status oversized = ParseTbf(bytes + std::string(8, '\0')).status();
  EXPECT_TRUE(oversized.IsCorruption());
  EXPECT_EQ(oversized.message(), "TBF size mismatch: got 2084, want 2076");
}

TEST(TbfTest, SerializeMatchesPerValueEncoder) {
  for (const Field& field :
       {SpecialValuesField(4), SpecialValuesField(5), Field::Generate(8, 0.5),
        Field::Zero(0, 0, 0.01)}) {
    EXPECT_EQ(SerializeTbf(field, 11), ReferenceSerializeTbf(field, 11))
        << "n=" << field.n();
  }
}

TEST(TbfTest, ParseRoundTripsBitForBit) {
  Field field = SpecialValuesField(5);
  Result<Field> back = ParseTbf(ReferenceSerializeTbf(field, 2));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->n(), 5u);
  EXPECT_EQ(BitsOf(back->time()), BitsOf(field.time()));
  EXPECT_EQ(BitsOf(back->nu()), BitsOf(field.nu()));
  for (Component c : kComponents) {
    std::span<const double> want = field.Values(c);
    std::span<const double> got = back->Values(c);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(BitsOf(got[i]), BitsOf(want[i]))
          << ComponentName(c) << "[" << i << "]";
    }
  }
}

// A 28-byte header-only file whose grid extent makes 4·n³·8 wrap size_t.
std::string OverflowingHeader(uint32_t n) {
  std::string bytes = "TBF1";
  PutU32(&bytes, n);
  PutU32(&bytes, 0);
  PutDouble(&bytes, 0.0);
  PutDouble(&bytes, 0.01);
  return bytes;
}

TEST(TbfTest, GridSizeOverflowIsCorruption) {
  // n = 2^21: 4·n³·8 = 2^68 wraps to 0, so an unchecked size test accepts
  // the 28-byte file and then allocates 2^63 doubles per component.
  // n = 2^22: n³ itself wraps to 0. Either must be refused up front.
  for (uint32_t n : {1u << 21, 1u << 22, 0xFFFFFFFFu}) {
    Status s = ParseTbf(OverflowingHeader(n)).status();
    EXPECT_TRUE(s.IsCorruption()) << n << ": " << s.ToString();
    ASSERT_TRUE(ParseTbfHeader(OverflowingHeader(n)).ok());
  }
}

TEST(DatasetSpecTest, SizesMatchPaperScale) {
  // A 256^3 four-field double dataset is ~537 MB — the paper's "large
  // simulation" (544 MB) scale.
  DatasetSpec spec;
  spec.grid_n = 256;
  EXPECT_NEAR(static_cast<double>(spec.SizeBytes()),
              536.9e6, 1e6);
  EXPECT_GT(kLargeSimulationBytes, spec.SizeBytes());
  EXPECT_EQ(kSmallSimulationBytes, 85000000u);
}

TEST(DatasetSpecTest, FileNameFormat) {
  DatasetSpec spec;
  spec.simulation_key = "S19990110150932";
  spec.timestep = 42;
  spec.grid_n = 128;
  EXPECT_EQ(spec.FileName(), "S19990110150932_t0042_n128.tbf");
}

TEST(ArchiveDatasetTest, MaterialisedAndSparse) {
  fs::FileServer server("fs1");
  DatasetSpec spec;
  spec.simulation_key = "S1";
  spec.grid_n = 8;
  spec.materialize = true;
  auto url = ArchiveDataset(&server, "/archive/S1", spec);
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(*url, "http://fs1/archive/S1/S1_t0000_n8.tbf");
  auto stat = server.vfs().Stat("/archive/S1/S1_t0000_n8.tbf");
  ASSERT_TRUE(stat.ok());
  EXPECT_FALSE(stat->sparse);
  // Archived bytes parse back to a valid field.
  auto bytes = server.vfs().ReadFile("/archive/S1/S1_t0000_n8.tbf");
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(ParseTbf(*bytes).ok());

  DatasetSpec sparse = spec;
  sparse.timestep = 1;
  sparse.grid_n = 256;
  sparse.materialize = false;
  auto url2 = ArchiveDataset(&server, "/archive/S1", sparse);
  ASSERT_TRUE(url2.ok());
  auto stat2 = server.vfs().Stat("/archive/S1/S1_t0001_n256.tbf");
  ASSERT_TRUE(stat2.ok());
  EXPECT_TRUE(stat2->sparse);
  EXPECT_EQ(stat2->size, sparse.SizeBytes());
}

class SliceConsistencyTest
    : public ::testing::TestWithParam<std::tuple<char, int>> {};

TEST_P(SliceConsistencyTest, SliceStatsWithinFieldStats) {
  auto [axis, index] = GetParam();
  Field field = Field::Generate(12, 0.2, 0.01);
  for (Component c : {Component::kU, Component::kV, Component::kP}) {
    Slice2D slice = *field.Slice(axis, static_cast<size_t>(index), c);
    FieldStats fs = field.Stats(c);
    FieldStats ss = slice.Stats();
    EXPECT_GE(ss.min, fs.min - 1e-12);
    EXPECT_LE(ss.max, fs.max + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AxesAndIndexes, SliceConsistencyTest,
    ::testing::Combine(::testing::Values('x', 'y', 'z'),
                       ::testing::Values(0, 5, 11)));

}  // namespace
}  // namespace easia::turb
