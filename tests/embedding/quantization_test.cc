// Quantized cold-row storage (DESIGN.md §14): kernel round-trip bounds,
// the mixed hot/cold EmbeddingTable storage modes, and the verbatim
// persistence of compressed sections through the v3 model container.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "data/schema.h"
#include "embedding/embedding_bag.h"
#include "embedding/embedding_table.h"
#include "models/factory.h"
#include "models/model_io.h"
#include "tensor/kernels.h"
#include "test_temp_dir.h"
#include "util/random.h"

namespace fae {
namespace {

using test::TempPath;

// Every-4th-row-hot mask, the shape used throughout these tests.
std::vector<uint8_t> QuarterHotMask(uint64_t rows) {
  std::vector<uint8_t> mask(rows, 0);
  for (uint64_t r = 0; r < rows; r += 4) mask[r] = 1;
  return mask;
}

// --- Kernel round-trip properties -----------------------------------------

TEST(QuantKernelTest, Int8ErrorBoundedByHalfScale) {
  Xoshiro256 rng(17);
  const size_t dim = 48;
  std::vector<float> x(dim), back(dim);
  std::vector<uint8_t> q(dim);
  for (double mag : {1e-4, 1e-2, 1.0, 1e2, 1e4}) {
    for (int rep = 0; rep < 32; ++rep) {
      for (size_t i = 0; i < dim; ++i) {
        x[i] = static_cast<float>((2.0 * rng.NextDouble() - 1.0) * mag);
      }
      float scale = 0.0f, zero = 0.0f;
      kernels::QuantizeRowI8(dim, x.data(), q.data(), &scale, &zero);
      kernels::DequantRowI8(dim, q.data(), scale, zero, back.data());
      for (size_t i = 0; i < dim; ++i) {
        // Half a code of rounding, plus ulp slop from the affine float
        // arithmetic around the zero point.
        const double bound =
            0.5 * scale + 4.0 * std::fabs(zero) * 1.2e-7 + 1e-12;
        EXPECT_LE(std::fabs(static_cast<double>(back[i]) - x[i]), bound)
            << "mag " << mag << " elem " << i;
      }
    }
  }
}

TEST(QuantKernelTest, Int8ConstantRowReconstructsExactly) {
  const size_t dim = 16;
  std::vector<float> x(dim, -3.75f), back(dim);
  std::vector<uint8_t> q(dim);
  float scale = 1.0f, zero = 0.0f;
  kernels::QuantizeRowI8(dim, x.data(), q.data(), &scale, &zero);
  EXPECT_EQ(scale, 0.0f);
  kernels::DequantRowI8(dim, q.data(), scale, zero, back.data());
  for (size_t i = 0; i < dim; ++i) EXPECT_EQ(back[i], -3.75f);
}

TEST(QuantKernelTest, Int8EndpointsMapToExtremeCodes) {
  const float x[4] = {-2.0f, 0.0f, 1.0f, 6.0f};
  uint8_t q[4];
  float scale = 0.0f, zero = 0.0f;
  kernels::QuantizeRowI8(4, x, q, &scale, &zero);
  EXPECT_EQ(q[0], 0);    // the min is the zero point
  EXPECT_EQ(q[3], 255);  // the max is the top code
  EXPECT_EQ(zero, -2.0f);
  EXPECT_FLOAT_EQ(scale, 8.0f / 255.0f);
}

TEST(QuantKernelTest, Fp16RelativeErrorBounded) {
  Xoshiro256 rng(18);
  const size_t dim = 48;
  std::vector<float> x(dim), back(dim);
  std::vector<uint16_t> q(dim);
  for (int rep = 0; rep < 64; ++rep) {
    for (size_t i = 0; i < dim; ++i) {
      x[i] = static_cast<float>((2.0 * rng.NextDouble() - 1.0) * 8.0);
    }
    kernels::QuantizeRowF16(dim, x.data(), q.data());
    kernels::DequantRowF16(dim, q.data(), back.data());
    for (size_t i = 0; i < dim; ++i) {
      // binary16 round-to-nearest: half-ulp, 2^-11 relative, for values in
      // the normal range (plus an absolute floor for near-zero inputs).
      EXPECT_LE(std::fabs(static_cast<double>(back[i]) - x[i]),
                std::fabs(x[i]) * 4.9e-4 + 6.2e-5);
    }
  }
}

// --- Mixed-storage EmbeddingTable -----------------------------------------

TEST(CompressedTableTest, HotRowsStayBitExact) {
  for (ColdPrecision p : {ColdPrecision::kInt8, ColdPrecision::kFp16}) {
    Xoshiro256 rng(21);
    EmbeddingTable plain(256, 24, rng);
    EmbeddingTable packed = plain;
    const auto mask = QuarterHotMask(256);
    packed.CompressCold(mask, p);
    ASSERT_TRUE(packed.compressed());
    std::vector<float> a(24), b(24);
    for (uint64_t r = 0; r < 256; ++r) {
      plain.ReadRowInto(r, a.data());
      packed.ReadRowInto(r, b.data());
      if (mask[r]) {
        EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * 24), 0)
            << "hot row " << r;
      } else {
        float scale = 0.0f, zero = 0.0f;
        std::vector<uint8_t> q8(24);
        std::vector<uint16_t> q16(24);
        std::vector<float> expect(24);
        if (p == ColdPrecision::kInt8) {
          kernels::QuantizeRowI8(24, a.data(), q8.data(), &scale, &zero);
          kernels::DequantRowI8(24, q8.data(), scale, zero, expect.data());
        } else {
          kernels::QuantizeRowF16(24, a.data(), q16.data());
          kernels::DequantRowF16(24, q16.data(), expect.data());
        }
        // The cold store reconstructs exactly what the kernels reconstruct.
        EXPECT_EQ(std::memcmp(expect.data(), b.data(), sizeof(float) * 24), 0)
            << "cold row " << r;
      }
    }
  }
}

TEST(CompressedTableTest, AddRowToMatchesReadRowInto) {
  Xoshiro256 rng(22);
  EmbeddingTable table(128, 16, rng);
  table.CompressCold(QuarterHotMask(128), ColdPrecision::kInt8);
  std::vector<float> read(16), acc(16);
  for (uint64_t r = 0; r < 128; ++r) {
    table.ReadRowInto(r, read.data());
    std::fill(acc.begin(), acc.end(), 1.5f);
    table.AddRowTo(r, acc.data());
    for (size_t i = 0; i < 16; ++i) EXPECT_EQ(acc[i], 1.5f + read[i]);
  }
}

TEST(CompressedTableTest, DecompressWidensExactly) {
  for (ColdPrecision p : {ColdPrecision::kInt8, ColdPrecision::kFp16}) {
    Xoshiro256 rng(23);
    EmbeddingTable table(96, 12, rng);
    EmbeddingTable packed = table;
    packed.CompressCold(QuarterHotMask(96), p);
    // What the compressed table serves is what Decompress must keep.
    std::vector<std::vector<float>> served(96, std::vector<float>(12));
    for (uint64_t r = 0; r < 96; ++r) packed.ReadRowInto(r, served[r].data());
    packed.Decompress();
    ASSERT_FALSE(packed.compressed());
    EXPECT_EQ(packed.cold_rows(), 0u);
    for (uint64_t r = 0; r < 96; ++r) {
      EXPECT_EQ(std::memcmp(packed.row(r), served[r].data(),
                            sizeof(float) * 12),
                0)
          << "row " << r;
    }
  }
}

TEST(CompressedTableTest, StagedUpdateRequantizesOnFlush) {
  Xoshiro256 rng(24);
  EmbeddingTable table(64, 8, rng);
  table.CompressCold(QuarterHotMask(64), ColdPrecision::kInt8);
  const uint64_t cold_row = 1;  // not a multiple of 4
  ASSERT_FALSE(table.RowResident(cold_row));

  float* row = table.EnsureResidentRow(cold_row);
  ASSERT_TRUE(table.RowResident(cold_row));
  EXPECT_EQ(table.staged_count(), 1u);
  for (size_t i = 0; i < 8; ++i) row[i] = 0.5f * static_cast<float>(i);

  // While staged the fp32 image is served exactly.
  std::vector<float> read(8);
  table.ReadRowInto(cold_row, read.data());
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(read[i], 0.5f * i);

  table.FlushStaged();
  EXPECT_EQ(table.staged_count(), 0u);
  EXPECT_FALSE(table.RowResident(cold_row));

  // After the flush the row reads back as its own quantization.
  std::vector<uint8_t> q(8);
  std::vector<float> written(8), expect(8);
  for (size_t i = 0; i < 8; ++i) written[i] = 0.5f * static_cast<float>(i);
  float scale = 0.0f, zero = 0.0f;
  kernels::QuantizeRowI8(8, written.data(), q.data(), &scale, &zero);
  kernels::DequantRowI8(8, q.data(), scale, zero, expect.data());
  table.ReadRowInto(cold_row, read.data());
  EXPECT_EQ(std::memcmp(read.data(), expect.data(), sizeof(float) * 8), 0);
}

TEST(CompressedTableTest, PartitionMatchesDetectsDrift) {
  Xoshiro256 rng(25);
  EmbeddingTable table(64, 8, rng);
  const auto mask = QuarterHotMask(64);
  table.CompressCold(mask, ColdPrecision::kFp16);
  EXPECT_TRUE(table.PartitionMatches(mask));

  auto flipped = mask;
  flipped[2] = 1;  // a row the compressed table holds cold
  EXPECT_FALSE(table.PartitionMatches(flipped));

  // A staged row is neither cleanly hot nor cold — refuse the match.
  table.EnsureResidentRow(1);
  EXPECT_FALSE(table.PartitionMatches(mask));
  table.FlushStaged();
  EXPECT_TRUE(table.PartitionMatches(mask));
}

TEST(CompressedTableTest, ColdStoreCompressionRatios) {
  // dim 64: int8 = 64 codes + 8 bytes of scale/zero = 72 vs 256 fp32
  // (3.56x); fp16 = 128 vs 256 (2.0x). dim 16 int8 caps at 64/24 = 2.67x —
  // the reason the bench gate runs on the dim-64 workload.
  for (size_t dim : {16ul, 64ul}) {
    Xoshiro256 rng(26);
    EmbeddingTable t8(256, dim, rng);
    EmbeddingTable t16 = t8;
    const auto mask = QuarterHotMask(256);
    t8.CompressCold(mask, ColdPrecision::kInt8);
    t16.CompressCold(mask, ColdPrecision::kFp16);
    const uint64_t cold = t8.cold_rows();
    ASSERT_GT(cold, 0u);
    EXPECT_EQ(t8.ColdStoreBytes(), cold * (dim + 8));
    EXPECT_EQ(t16.ColdStoreBytes(), cold * dim * 2);
    const double fp32 = static_cast<double>(cold * dim * 4);
    EXPECT_GE(fp32 / static_cast<double>(t8.ColdStoreBytes()),
              dim == 64 ? 3.5 : 2.6);
    EXPECT_DOUBLE_EQ(fp32 / static_cast<double>(t16.ColdStoreBytes()), 2.0);
  }
}

TEST(CompressedTableTest, EmbeddingBagPoolsMixedHotCold) {
  Xoshiro256 rng(27);
  EmbeddingTable table(64, 8, rng);
  table.CompressCold(QuarterHotMask(64), ColdPrecision::kInt8);
  const std::vector<uint32_t> idx = {0, 1, 4, 7};  // hot, cold, hot, cold
  const std::vector<uint32_t> off = {0, 4};
  Tensor out;
  EmbeddingBag::ForwardInto(out, table, idx, off);
  std::vector<float> expect(8, 0.0f);
  for (uint32_t r : idx) table.AddRowTo(r, expect.data());
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(out(0, i), expect[i]);
}

// --- Verbatim persistence through the v3 container -------------------------

TEST(QuantModelIoTest, CompressedTableRoundTripsVerbatim) {
  const DatasetSchema schema =
      MakeSchema(WorkloadKind::kKaggleDlrm, DatasetScale::kTiny);
  auto model = MakeModel(schema, /*full_size=*/false, /*seed=*/9);
  auto& tables = model->tables();
  ASSERT_FALSE(tables.empty());
  EmbeddingTable& big = tables.front();
  big.CompressCold(QuarterHotMask(big.rows()), ColdPrecision::kInt8);

  const std::string path = TempPath("fae_quant_io_verbatim.faem");
  ASSERT_TRUE(ModelIo::Save(path, *model).ok());

  auto fresh = MakeModel(schema, /*full_size=*/false, /*seed=*/10);
  ASSERT_TRUE(ModelIo::Load(path, *fresh).ok());
  const EmbeddingTable& got = fresh->tables().front();
  ASSERT_TRUE(got.compressed());
  EXPECT_EQ(got.cold_precision(), ColdPrecision::kInt8);
  EXPECT_EQ(got.slot_map(), big.slot_map());
  EXPECT_EQ(got.resident_data(), big.resident_data());
  EXPECT_EQ(got.cold_codes_i8(), big.cold_codes_i8());
  EXPECT_EQ(got.cold_scale(), big.cold_scale());
  EXPECT_EQ(got.cold_zero(), big.cold_zero());
  std::filesystem::remove(path);
}

TEST(QuantModelIoTest, SaveRefusesStagedRows) {
  const DatasetSchema schema =
      MakeSchema(WorkloadKind::kKaggleDlrm, DatasetScale::kTiny);
  auto model = MakeModel(schema, /*full_size=*/false, /*seed=*/11);
  EmbeddingTable& big = model->tables().front();
  big.CompressCold(QuarterHotMask(big.rows()), ColdPrecision::kFp16);
  big.EnsureResidentRow(1);

  const std::string path = TempPath("fae_quant_io_staged.faem");
  Status s = ModelIo::Save(path, *model);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  big.FlushStaged();
  EXPECT_TRUE(ModelIo::Save(path, *model).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fae
