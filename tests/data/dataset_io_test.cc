#include "data/dataset_io.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

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
  // Fuzz-style corruption sweep: a flipped byte at any offset must surface
  // as DataLoss from the whole-file CRC, never a crash or a half-loaded
  // dataset.
  Dataset original = MakeData(WorkloadKind::kKaggleDlrm, 50);
  const std::string path = TempPath("fae_ds_bitflip.faed");
  ASSERT_TRUE(DatasetIo::Save(path, original).ok());
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 16u);

  for (const double frac : {0.0, 0.1, 0.33, 0.5, 0.77, 0.999}) {
    const auto offset = static_cast<std::streamoff>(
        frac * static_cast<double>(size - 1));
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    file.seekg(offset);
    file.read(&byte, 1);
    const char flipped = static_cast<char>(byte ^ 0x40);
    file.seekp(offset);
    file.write(&flipped, 1);
    file.close();

    auto loaded = DatasetIo::Load(path);
    ASSERT_FALSE(loaded.ok()) << "byte " << offset << " of " << size;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << loaded.status().ToString();

    std::fstream undo(path, std::ios::in | std::ios::out | std::ios::binary);
    undo.seekp(offset);
    undo.write(&byte, 1);
  }
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
  DatasetSchema schema;
  schema.name = "corrupt-me";
  schema.num_dense = 1;
  schema.table_rows = {4};
  schema.embedding_dim = 2;
  FlatDataset flat(schema);
  flat.AppendDense(0.5f);
  flat.AppendLookup(0, 3);
  flat.FinishSample(1.0f);
  Dataset original(std::move(flat));
  const std::string path = TempPath("fae_ds_range.faed");
  ASSERT_TRUE(DatasetIo::Save(path, original).ok());

  // The single index 3 is the last u32 before the label+trailer+crc; patch
  // it to 200 (> 4 rows), then refresh the CRC footer so the *semantic*
  // range check — not the checksum — is what rejects the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-16, std::ios::end);  // index(4) + label(4) + trailer(4) + crc(4)
    const uint32_t bad = 200;
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    const uint32_t crc = Crc32(bytes.data(), bytes.size() - 4);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-4, std::ios::end);
    f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  auto loaded = DatasetIo::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  (void)RemoveFile(path);
}

}  // namespace
}  // namespace fae
