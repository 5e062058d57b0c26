#include "data/dataset_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "test_temp_dir.h"
#include "util/file_io.h"

namespace fae {
namespace {

using test::TempPath;

Dataset MakeData(WorkloadKind kind = WorkloadKind::kKaggleDlrm,
                 size_t n = 300) {
  SyntheticGenerator gen(MakeSchema(kind, DatasetScale::kTiny), {.seed = 91});
  return gen.Generate(n);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Overwrites `value` at byte `offset` of the file (negative: counted from
/// the end), then refreshes the CRC footer, so a semantic check — not the
/// checksum — is what must reject the file.
template <typename T>
void PatchWithFreshCrc(const std::string& path, std::streamoff offset,
                       T value) {
  std::string bytes = ReadAll(path);
  const size_t at = static_cast<size_t>(
      offset < 0 ? static_cast<std::streamoff>(bytes.size()) + offset
                 : offset);
  ASSERT_LE(at + sizeof(T), bytes.size() - 4);
  std::memcpy(bytes.data() + at, &value, sizeof(T));
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  WriteAll(path, bytes);
}

/// Byte offset of the FAED v3 sample count: magic, version, then the
/// schema (name, kind, num_dense, table_rows, embedding_dim, sequential,
/// max_history). The per-table lookup counts follow it as u64s.
size_t SampleCountOffset(const DatasetSchema& s) {
  return 4 + 4 + (8 + s.name.size()) + 4 + 8 + (8 + 8 * s.num_tables()) +
         8 + 4 + 8;
}

/// One table of 4 rows, one dense feature, and one lookup per sample.
Dataset MakeSingleTableData(const std::vector<uint32_t>& rows) {
  DatasetSchema schema;
  schema.name = "corrupt-me";
  schema.num_dense = 1;
  schema.table_rows = {4};
  schema.embedding_dim = 2;
  FlatDataset flat(schema);
  for (uint32_t row : rows) {
    flat.AppendDense(0.5f);
    flat.AppendLookup(0, row);
    flat.FinishSample(1.0f);
  }
  return Dataset(std::move(flat));
}

TEST(DatasetIoTest, RoundTripPreservesEverything) {
  Dataset original = MakeData();
  const std::string path = TempPath("fae_ds_roundtrip.faed");
  ASSERT_TRUE(DatasetIo::Save(path, original).ok());
  auto loaded = DatasetIo::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const DatasetSchema& a = original.schema();
  const DatasetSchema& b = loaded->schema();
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.num_dense, b.num_dense);
  EXPECT_EQ(a.table_rows, b.table_rows);
  EXPECT_EQ(a.embedding_dim, b.embedding_dim);
  EXPECT_EQ(a.sequential, b.sequential);
  EXPECT_EQ(a.max_history, b.max_history);

  ASSERT_EQ(original.size(), loaded->size());
  const FlatDataset& want = original.flat();
  const FlatDataset& got = loaded->flat();
  EXPECT_TRUE(std::ranges::equal(want.dense_data(), got.dense_data()));
  EXPECT_TRUE(std::ranges::equal(want.labels(), got.labels()));
  for (size_t t = 0; t < a.num_tables(); ++t) {
    EXPECT_TRUE(std::ranges::equal(want.offsets(t), got.offsets(t)));
    EXPECT_TRUE(std::ranges::equal(want.indices(t), got.indices(t)));
  }
  (void)RemoveFile(path);
}

TEST(DatasetIoTest, RoundTripSequentialWorkload) {
  Dataset original = MakeData(WorkloadKind::kTaobaoTbsm, 200);
  const std::string path = TempPath("fae_ds_seq.faed");
  ASSERT_TRUE(DatasetIo::Save(path, original).ok());
  auto loaded = DatasetIo::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->schema().sequential);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(std::ranges::equal(original.flat().lookups(0, i),
                                   loaded->flat().lookups(0, i)));
  }
  (void)RemoveFile(path);
}

TEST(DatasetIoTest, EmptyDatasetRoundTrips) {
  Dataset original{
      FlatDataset(MakeSchema(WorkloadKind::kKaggleDlrm, DatasetScale::kTiny))};
  const std::string path = TempPath("fae_ds_empty.faed");
  ASSERT_TRUE(DatasetIo::Save(path, original).ok());
  auto loaded = DatasetIo::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  (void)RemoveFile(path);
}

TEST(DatasetIoTest, RejectsGarbage) {
  const std::string path = TempPath("fae_ds_garbage.faed");
  {
    std::ofstream out(path, std::ios::binary);
    out << "nope, definitely not a dataset";
  }
  auto loaded = DatasetIo::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  (void)RemoveFile(path);
}

TEST(DatasetIoTest, RejectsTruncation) {
  Dataset original = MakeData(WorkloadKind::kKaggleDlrm, 50);
  const std::string path = TempPath("fae_ds_trunc.faed");
  ASSERT_TRUE(DatasetIo::Save(path, original).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 7);
  auto loaded = DatasetIo::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  (void)RemoveFile(path);
}

TEST(DatasetIoTest, SingleBitFlipsAnywhereAreRejected) {
  // Corruption sweep over every byte of a small file: header, each
  // section, trailer and footer. A flip must surface as DataLoss (from the
  // size check, the CRC or a header field), never a crash or a half-loaded
  // dataset.
  Dataset original = MakeData(WorkloadKind::kKaggleDlrm, 6);
  const std::string path = TempPath("fae_ds_bitflip.faed");
  ASSERT_TRUE(DatasetIo::Save(path, original).ok());
  const std::string pristine = ReadAll(path);
  ASSERT_GT(pristine.size(), 16u);

  for (size_t offset = 0; offset < pristine.size(); ++offset) {
    std::string mutant = pristine;
    mutant[offset] = static_cast<char>(mutant[offset] ^ 0x40);
    WriteAll(path, mutant);
    auto loaded = DatasetIo::Load(path);
    ASSERT_FALSE(loaded.ok()) << "byte " << offset << " of "
                              << pristine.size();
    ASSERT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "byte " << offset << ": " << loaded.status().ToString();
  }
  WriteAll(path, pristine);
  ASSERT_TRUE(DatasetIo::Load(path).ok());  // pristine again
  (void)RemoveFile(path);
}

TEST(DatasetIoTest, MissingFileIsNotFound) {
  auto loaded = DatasetIo::Load(TempPath("fae_ds_missing.faed"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(DatasetIoTest, RejectsOutOfRangeLookup) {
  // Hand-corrupt a valid file by bumping one index beyond its table.
  Dataset original = MakeSingleTableData({3});
  const std::string path = TempPath("fae_ds_range.faed");
  ASSERT_TRUE(DatasetIo::Save(path, original).ok());

  // The single index 3 is the indices section, the last u32 before the
  // trailer and CRC; patch it to 200 (> 4 rows) under a fresh CRC.
  PatchWithFreshCrc<uint32_t>(path, -12, 200);  // index + trailer + crc
  auto loaded = DatasetIo::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("out of table range"),
            std::string::npos)
      << loaded.status().ToString();
  (void)RemoveFile(path);
}

TEST(DatasetIoTest, RejectsHugeCountsBeforeAllocating) {
  // A sample or lookup count that would size a section beyond the file
  // must be refused by the size check, before any column is allocated
  // (an allocation of that size aborts under ASan). The counts include
  // ones whose byte sizes overflow u64.
  Dataset original = MakeData(WorkloadKind::kKaggleDlrm, 20);
  const DatasetSchema& schema = original.schema();
  const std::string path = TempPath("fae_ds_huge.faed");
  const size_t n_at = SampleCountOffset(schema);
  const size_t last_lookups_at = n_at + 8 * schema.num_tables();
  {
    // The offsets point where the writer put the counts.
    ASSERT_TRUE(DatasetIo::Save(path, original).ok());
    const std::string bytes = ReadAll(path);
    uint64_t n = 0, last_lookups = 0;
    std::memcpy(&n, bytes.data() + n_at, sizeof(n));
    std::memcpy(&last_lookups, bytes.data() + last_lookups_at,
                sizeof(last_lookups));
    ASSERT_EQ(n, original.size());
    ASSERT_EQ(last_lookups,
              original.flat().indices(schema.num_tables() - 1).size());
  }
  for (const size_t at : {n_at, n_at + 8, last_lookups_at}) {
    for (const uint64_t count :
         {uint64_t{1} << 40, UINT64_MAX / 4 + 1, UINT64_MAX}) {
      ASSERT_TRUE(DatasetIo::Save(path, original).ok());
      PatchWithFreshCrc<uint64_t>(path, static_cast<std::streamoff>(at),
                                  count);
      auto loaded = DatasetIo::Load(path);
      ASSERT_FALSE(loaded.ok()) << "count " << count << " at byte " << at;
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
      EXPECT_NE(loaded.status().message().find("does not match its header"),
                std::string::npos)
          << loaded.status().ToString();
    }
  }
  (void)RemoveFile(path);
}

TEST(DatasetIoTest, RejectsMalformedOffsets) {
  // Three samples with one lookup each: offsets {0, 1, 2, 3}, then the
  // three indices, the trailer and the CRC at the end of the file.
  const std::string path = TempPath("fae_ds_offsets.faed");
  constexpr std::streamoff kOffsets = -(4 * 4 + 3 * 4 + 4 + 4);
  struct Case {
    const char* what;
    std::vector<uint32_t> offsets;
  };
  for (const Case& c : {Case{"decreasing", {0, 2, 1, 3}},
                        Case{"not starting at 0", {1, 1, 2, 3}},
                        Case{"short of the lookup count", {0, 1, 2, 2}}}) {
    SCOPED_TRACE(c.what);
    ASSERT_TRUE(DatasetIo::Save(path, MakeSingleTableData({0, 1, 2})).ok());
    for (size_t i = 0; i < c.offsets.size(); ++i) {
      PatchWithFreshCrc<uint32_t>(
          path, kOffsets + static_cast<std::streamoff>(4 * i), c.offsets[i]);
    }
    auto loaded = DatasetIo::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find("malformed lookup offsets"),
              std::string::npos)
        << loaded.status().ToString();
  }
  (void)RemoveFile(path);
}

TEST(DatasetIoTest, RefusesVersion2WithRegenerateHint) {
  // FAED v2 stored length-prefixed vectors per sample; no reader for it
  // remains. Its files are refused by version, with the remedy.
  const std::string path = TempPath("fae_ds_v2.faed");
  ASSERT_TRUE(DatasetIo::Save(path, MakeData(WorkloadKind::kKaggleDlrm, 5))
                  .ok());
  PatchWithFreshCrc<uint32_t>(path, 4, 2);  // the version word
  auto loaded = DatasetIo::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  const std::string_view message = loaded.status().message();
  EXPECT_NE(message.find("version 2"), std::string::npos) << message;
  EXPECT_NE(message.find("regenerate"), std::string::npos) << message;
  EXPECT_NE(message.find("fae generate"), std::string::npos) << message;
  (void)RemoveFile(path);
}

}  // namespace
}  // namespace fae
