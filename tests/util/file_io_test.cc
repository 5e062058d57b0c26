#include "util/file_io.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_temp_dir.h"
#include "util/crc32.h"

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

/// The byte-at-a-time table loop Crc32 used before slicing-by-8.
uint32_t ByteLoopCrc32(const unsigned char* p, size_t n, uint32_t seed = 0) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  std::vector<unsigned char> bytes(n);
  uint64_t x = seed;
  for (unsigned char& b : bytes) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<unsigned char>(x >> 56);
  }
  return bytes;
}

TEST(FileIoTest, Crc32MatchesByteLoopAtEveryLengthAndAlignment) {
  // Lengths 0..64 cover zero, one and several 8-byte steps plus every
  // tail; start offsets 0..7 cover every misalignment of the 8-byte loads.
  const std::vector<unsigned char> bytes = RandomBytes(64 + 8, 1);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t n = 0; n <= 64; ++n) {
      EXPECT_EQ(Crc32(bytes.data() + start, n),
                ByteLoopCrc32(bytes.data() + start, n))
          << "start " << start << " length " << n;
    }
  }
}

TEST(FileIoTest, Crc32ChainsAcrossOddSplits) {
  // A running checksum fed in pieces that end mid-step must equal one
  // call over the whole buffer.
  const std::vector<unsigned char> bytes = RandomBytes(1000, 2);
  const uint32_t whole = ByteLoopCrc32(bytes.data(), bytes.size());
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), whole);
  for (const size_t step : {1, 3, 7, 9, 13, 61, 333}) {
    uint32_t crc = 0;
    for (size_t at = 0; at < bytes.size(); at += step) {
      crc = Crc32(bytes.data() + at, std::min(step, bytes.size() - at), crc);
    }
    EXPECT_EQ(crc, whole) << "pieces of " << step << " bytes";
  }
  // Uneven splits, and a byte-loop prefix continued by Crc32.
  const size_t cut1 = 5, cut2 = 517;
  uint32_t crc = Crc32(bytes.data(), cut1);
  crc = Crc32(bytes.data() + cut1, cut2 - cut1, crc);
  crc = Crc32(bytes.data() + cut2, bytes.size() - cut2, crc);
  EXPECT_EQ(crc, whole);
  EXPECT_EQ(Crc32(bytes.data() + 11, bytes.size() - 11,
                  ByteLoopCrc32(bytes.data(), 11)),
            whole);
}

TEST(FileIoTest, ReaderCrcMatchesWriterCrc) {
  // The reader checksums what it reads, including a vector larger than
  // one read chunk, so a loader can check a footer in the same pass.
  const std::string path = TempPath("fae_rcrc.bin");
  std::vector<uint32_t> big(300000);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  uint32_t written = 0;
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->WriteString("header").ok());
    ASSERT_TRUE(w->WriteVector(big).ok());
    ASSERT_TRUE(w->WriteU32(7).ok());
    written = w->crc();
    ASSERT_TRUE(w->Close().ok());
  }
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->crc(), 0u);
  ASSERT_TRUE(r->ReadString().ok());
  auto v = r->ReadVector<uint32_t>();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, big);
  ASSERT_TRUE(r->ReadU32().ok());
  EXPECT_EQ(r->crc(), written);
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

/// One build of Crc32 (util/crc32.h); a build the CPU cannot run skips.
class Crc32IsaTest : public ::testing::TestWithParam<crc::Isa> {
 protected:
  void SetUp() override {
    if (!crc::IsaSupported(GetParam())) {
      GTEST_SKIP() << crc::IsaName(GetParam())
                   << " is not supported on this CPU";
    }
    crc_ = crc::CrcFor(GetParam());
  }

  crc::Fn crc_ = nullptr;
};

TEST_P(Crc32IsaTest, MatchesKnownAnswer) {
  const char digits[] = "123456789";
  EXPECT_EQ(crc_(digits, 9, 0), 0xCBF43926u);
  EXPECT_EQ(crc_(digits, 0, 0), 0u);
  EXPECT_EQ(crc_(digits + 4, 5, crc_(digits, 4, 0)), 0xCBF43926u);
}

TEST_P(Crc32IsaTest, MatchesByteLoopAtEveryLengthAndAlignment) {
  // Lengths 0..599 cover every tail of the fold's 16- and 64-byte steps
  // and the switch from the tables to the fold; a few longer ones
  // run the main loops many times. Start offsets 0..7 cover every
  // misalignment of the loads.
  const std::vector<unsigned char> bytes = RandomBytes(70000 + 8, 3);
  std::vector<size_t> lengths(600);
  for (size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
  for (size_t n : {1023, 1024, 1025, 4099, 65536, 70000}) {
    lengths.push_back(n);
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t n : lengths) {
      ASSERT_EQ(crc_(bytes.data() + start, n, 0),
                ByteLoopCrc32(bytes.data() + start, n))
          << "start " << start << " length " << n;
    }
  }
}

TEST_P(Crc32IsaTest, ChainsAcrossOddSplits) {
  const std::vector<unsigned char> bytes = RandomBytes(5000, 4);
  const uint32_t whole = ByteLoopCrc32(bytes.data(), bytes.size());
  for (const size_t step : {1, 3, 7, 9, 13, 61, 257, 333, 1021, 4999}) {
    uint32_t c = 0;
    for (size_t at = 0; at < bytes.size(); at += step) {
      c = crc_(bytes.data() + at, std::min(step, bytes.size() - at), c);
    }
    EXPECT_EQ(c, whole) << "pieces of " << step << " bytes";
  }
  // A byte-loop prefix continued by the build, and the reverse.
  EXPECT_EQ(crc_(bytes.data() + 11, bytes.size() - 11,
                 ByteLoopCrc32(bytes.data(), 11)),
            whole);
  EXPECT_EQ(ByteLoopCrc32(bytes.data() + 700, bytes.size() - 700,
                          crc_(bytes.data(), 700, 0)),
            whole);
}

TEST_P(Crc32IsaTest, MatchesWriterAndReaderCrc) {
  // The writer and the reader checksum through the dispatched build; each
  // build must agree with them over the file's bytes.
  const std::string path = TempPath("fae_isa_crc.bin");
  const std::vector<unsigned char> payload = RandomBytes(300001, 5);
  uint32_t written = 0;
  {
    auto w = BinaryWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->WriteString("header").ok());
    ASSERT_TRUE(w->WriteVector(payload).ok());
    written = w->crc();
    ASSERT_TRUE(w->Close().ok());
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<unsigned char> file((std::istreambuf_iterator<char>(in)),
                                        std::istreambuf_iterator<char>());
  EXPECT_EQ(crc_(file.data(), file.size(), 0), written);
  auto r = BinaryReader::Open(path);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ReadString().ok());
  ASSERT_TRUE(r->ReadVector<unsigned char>().ok());
  EXPECT_EQ(r->crc(), written);
}

INSTANTIATE_TEST_SUITE_P(
    Isa, Crc32IsaTest,
    ::testing::Values(crc::Isa::kSlicing8, crc::Isa::kPclmul),
    [](const ::testing::TestParamInfo<crc::Isa>& info) {
      std::string name = crc::IsaName(info.param);
      name[0] = static_cast<char>(name[0] - 'a' + 'A');
      return name;
    });

/// Whether this binary has the build for `isa` and the CPU can run it,
/// asked of the CPU directly rather than of IsaSupported.
bool CpuRuns(crc::Isa isa) {
  switch (isa) {
    case crc::Isa::kSlicing8:
      return true;
    case crc::Isa::kPclmul:
#if FAE_CRC32_PCLMUL
      return __builtin_cpu_supports("pclmul");
#else
      return false;
#endif
  }
  return false;
}

// A build is supported exactly when it is compiled in and the CPU has its
// instructions, and Crc32 runs the widest supported build.
TEST(Crc32DispatchTest, PicksTheWidestCompiledAndSupportedBuild) {
  crc::Isa widest = crc::Isa::kSlicing8;
  for (crc::Isa isa : {crc::Isa::kSlicing8, crc::Isa::kPclmul}) {
    EXPECT_EQ(crc::IsaSupported(isa), CpuRuns(isa)) << crc::IsaName(isa);
    if (CpuRuns(isa)) widest = isa;
  }
  EXPECT_EQ(crc::DispatchedIsa(), widest);
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
