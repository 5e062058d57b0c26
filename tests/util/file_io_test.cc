#include "util/file_io.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_temp_dir.h"

namespace fae {
namespace {

using test::TempPath;

TEST(FileIoTest, RoundTripScalars) {
  const std::string path = TempPath("fae_scalars.bin");
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE(w->WriteU32(0xdeadbeef).ok());
    ASSERT_TRUE(w->WriteU64(0x1122334455667788ULL).ok());
    ASSERT_TRUE(w->WriteF32(1.5f).ok());
    ASSERT_TRUE(w->WriteF64(-2.25).ok());
    ASSERT_TRUE(w->WriteString("hello fae").ok());
    ASSERT_TRUE(w->Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  auto u32 = r->ReadU32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 0xdeadbeef);
  auto u64 = r->ReadU64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, 0x1122334455667788ULL);
  auto f32 = r->ReadF32();
  ASSERT_TRUE(f32.ok());
  EXPECT_EQ(*f32, 1.5f);
  auto f64 = r->ReadF64();
  ASSERT_TRUE(f64.ok());
  EXPECT_EQ(*f64, -2.25);
  auto s = r->ReadString();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "hello fae");
}

TEST(FileIoTest, RoundTripVector) {
  const std::string path = TempPath("fae_vec.bin");
  std::vector<uint64_t> data = {1, 1 << 20, 42, 0};
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->WriteVector(data).ok());
    ASSERT_TRUE(w->Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  auto v = r->ReadVector<uint64_t>();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, data);
}

TEST(FileIoTest, RoundTripEmptyVectorAndString) {
  const std::string path = TempPath("fae_empty.bin");
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->WriteVector(std::vector<float>{}).ok());
    ASSERT_TRUE(w->WriteString("").ok());
    ASSERT_TRUE(w->Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  auto v = r->ReadVector<float>();
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->empty());
  auto s = r->ReadString();
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->empty());
}

TEST(FileIoTest, OpenMissingFileIsNotFound) {
  auto r = BinaryReader::Open(TempPath("fae_does_not_exist.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(FileIoTest, TruncatedReadIsDataLoss) {
  const std::string path = TempPath("fae_trunc.bin");
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->WriteU32(7).ok());
    ASSERT_TRUE(w->Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  auto v = r->ReadU64();  // only 4 bytes available
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kDataLoss);
}

TEST(FileIoTest, RemainingBytesTracksInterleavedReads) {
  const std::string path = TempPath("fae_remaining.bin");
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->WriteU32(1).ok());
    ASSERT_TRUE(w->WriteVector(std::vector<float>{1.0f, 2.0f, 3.0f}).ok());
    ASSERT_TRUE(w->WriteString("abc").ok());
    ASSERT_TRUE(w->WriteF64(0.5).ok());
    ASSERT_TRUE(w->WriteU32(9).ok());
    ASSERT_TRUE(w->Close().ok());
  }
  const uint64_t size = 4 + (8 + 12) + (8 + 3) + 8 + 4;
  ASSERT_EQ(std::filesystem::file_size(path), size);
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  uint64_t consumed = 0;
  EXPECT_EQ(r->RemainingBytes(), size);
  ASSERT_TRUE(r->ReadU32().ok());
  consumed += 4;
  EXPECT_EQ(r->RemainingBytes(), size - consumed);
  ASSERT_TRUE(r->ReadVector<float>().ok());
  consumed += 8 + 12;
  EXPECT_EQ(r->RemainingBytes(), size - consumed);
  ASSERT_TRUE(r->ReadString().ok());
  consumed += 8 + 3;
  EXPECT_EQ(r->RemainingBytes(), size - consumed);
  ASSERT_TRUE(r->ReadF64().ok());
  consumed += 8;
  EXPECT_EQ(r->RemainingBytes(), size - consumed);  // the trailing u32
  // A short read consumes what the file still held and leaves nothing.
  auto v = r->ReadU64();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(r->RemainingBytes(), 0u);
  EXPECT_FALSE(r->ReadU32().ok());
  EXPECT_EQ(r->RemainingBytes(), 0u);
}

TEST(FileIoTest, CorruptVectorLengthIsDataLoss) {
  const std::string path = TempPath("fae_badlen.bin");
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->WriteU64(~0ULL).ok());  // absurd element count
    ASSERT_TRUE(w->Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  auto v = r->ReadVector<double>();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kDataLoss);
}

TEST(FileIoTest, Crc32MatchesKnownAnswer) {
  // The IEEE CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(digits, 0), 0u);
}

TEST(FileIoTest, Crc32StreamsViaSeedChaining) {
  const char digits[] = "123456789";
  const uint32_t first = Crc32(digits, 4);
  EXPECT_EQ(Crc32(digits + 4, 5, first), Crc32(digits, 9));
}

TEST(FileIoTest, WriterCrcMatchesStandaloneCrc) {
  const std::string path = TempPath("fae_wcrc.bin");
  auto w = BinaryWriter::Open(path);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->WriteU32(0x01020304).ok());
  const uint32_t bytes_le[] = {0x01020304};
  EXPECT_EQ(w->crc(), Crc32(bytes_le, 4));
  ASSERT_TRUE(w->Close().ok());
}

TEST(FileIoTest, AtomicWriterCommitsOrLeavesTargetUntouched) {
  const std::string path = TempPath("fae_atomic.bin");
  // Seed the target with a good file.
  {
    auto w = BinaryWriter::OpenAtomic(path);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE(w->WriteU32(1).ok());
    ASSERT_TRUE(w->Commit().ok());
  }
  ASSERT_TRUE(FileExists(path));

  // A save abandoned before Commit() (a crash mid-checkpoint) must leave
  // both the previous file intact and no temp file behind.
  {
    auto w = BinaryWriter::OpenAtomic(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->WriteU32(0xbad).ok());
    ASSERT_TRUE(w->Close().ok());  // no Commit
  }
  EXPECT_FALSE(FileExists(path + ".tmp"));
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  auto v = r->ReadU32();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1u);  // old contents survived
}

TEST(FileIoTest, VerifyFileIntegrityCatchesCorruption) {
  const std::string path = TempPath("fae_integrity.bin");
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->WriteU64(0xfeedf00d).ok());
    ASSERT_TRUE(w->WriteString("payload").ok());
    ASSERT_TRUE(w->WriteU32(w->crc()).ok());  // the container CRC footer
    ASSERT_TRUE(w->Close().ok());
  }
  EXPECT_TRUE(VerifyFileIntegrity(path).ok());

  // One flipped bit anywhere fails the check.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    file.seekg(3);
    file.read(&byte, 1);
    byte ^= 0x01;
    file.seekp(3);
    file.write(&byte, 1);
  }
  EXPECT_EQ(VerifyFileIntegrity(path).code(), StatusCode::kDataLoss);

  // Truncation (even into the footer) fails too.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 2);
  EXPECT_EQ(VerifyFileIntegrity(path).code(), StatusCode::kDataLoss);

  EXPECT_EQ(VerifyFileIntegrity(TempPath("fae_no_such_file.bin")).code(),
            StatusCode::kNotFound);
}

TEST(FileIoTest, FileExistsAndRemove) {
  const std::string path = TempPath("fae_exists.bin");
  EXPECT_FALSE(FileExists(path));
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->Close().ok());
  }
  EXPECT_TRUE(FileExists(path));
  EXPECT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(RemoveFile(path).ok());  // removing absent file is OK
}

}  // namespace
}  // namespace fae
