#ifndef FAE_UTIL_FILE_IO_H_
#define FAE_UTIL_FILE_IO_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace fae {

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320) of `n` bytes. Streaming:
/// pass the previous return value as `seed` to continue a running checksum
/// (the seed of a fresh checksum is 0). Runs the widest build the CPU
/// supports, chosen once per process (util/crc32.h): a PCLMULQDQ fold by
/// carry-less multiply or portable slicing-by-8, both with the same
/// checksums as the byte-at-a-time table loop.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Little-endian binary writer with Status-based error reporting. Used by
/// the FAE preprocessed-dataset format (paper §III-B: "store this in the
/// FAE format for any subsequent training runs").
///
/// Every write feeds a running CRC-32 (`crc()`); container formats append
/// it as their last word so readers can verify whole-file integrity.
class BinaryWriter {
 public:
  /// Opens (truncates) `path` for writing.
  static StatusOr<BinaryWriter> Open(const std::string& path);

  /// Crash-safe open: writes go to `path + ".tmp"` and only Commit()
  /// renames the temp file over `path`, so an interrupted save never
  /// clobbers a previous good file.
  static StatusOr<BinaryWriter> OpenAtomic(const std::string& path);

  BinaryWriter(BinaryWriter&&) = default;
  BinaryWriter& operator=(BinaryWriter&&) = default;

  Status WriteU32(uint32_t v);
  Status WriteU64(uint64_t v);
  Status WriteF32(float v);
  Status WriteF64(double v);
  Status WriteBytes(const void* data, size_t n);
  Status WriteString(const std::string& s);

  template <typename T>
  Status WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    FAE_RETURN_IF_ERROR(WriteU64(v.size()));
    return WriteBytes(v.data(), v.size() * sizeof(T));
  }

  /// CRC-32 of everything written so far.
  uint32_t crc() const { return crc_; }

  /// Bytes written so far.
  uint64_t bytes() const { return bytes_; }

  /// Flushes and closes; further writes are invalid. An atomic writer that
  /// is closed without Commit() leaves the target file untouched (the temp
  /// file is removed).
  Status Close();

  /// Close(), then for atomic writers durably replace the final path:
  /// fsync the temp file, rename it over the final path, and fsync the
  /// directory, so that neither a crash nor a power loss can leave the
  /// final path naming a file whose data never reached the disk.
  /// Equivalent to Close() for plain Open() writers.
  Status Commit();

 private:
  explicit BinaryWriter(std::ofstream out) : out_(std::move(out)) {}
  std::ofstream out_;
  uint32_t crc_ = 0;
  uint64_t bytes_ = 0;
  std::string temp_path_;   // non-empty for atomic writers
  std::string final_path_;  // rename target of an atomic writer
};

/// Little-endian binary reader matching BinaryWriter. Like the writer, it
/// folds every byte it reads into a running CRC-32 (`crc()`), so a loader
/// can check a container's footer in the same pass that reads it.
class BinaryReader {
 public:
  /// Opens `path` for reading; NotFound if it does not exist.
  static StatusOr<BinaryReader> Open(const std::string& path);

  BinaryReader(BinaryReader&&) = default;
  BinaryReader& operator=(BinaryReader&&) = default;

  StatusOr<uint32_t> ReadU32();
  StatusOr<uint64_t> ReadU64();
  StatusOr<float> ReadF32();
  StatusOr<double> ReadF64();
  Status ReadBytes(void* data, size_t n);
  StatusOr<std::string> ReadString();

  template <typename T>
  StatusOr<std::vector<T>> ReadVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    FAE_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
    // A corrupted count cannot describe more payload than the file still
    // holds; checking against the remainder also bounds the allocation.
    if (n > RemainingBytes() / sizeof(T)) {
      return Status::DataLoss("vector length exceeds file remainder");
    }
    std::vector<T> v(n);
    FAE_RETURN_IF_ERROR(ReadBytes(v.data(), n * sizeof(T)));
    return v;
  }

  /// Bytes between the read cursor and the end of the file (as sized at
  /// Open). Tracked in the reader: asking the stream (`tellg`) costs a
  /// syscall per call, and loaders check this once per vector.
  uint64_t RemainingBytes() const { return size_ - pos_; }

  /// CRC-32 of everything read so far.
  uint32_t crc() const { return crc_; }

 private:
  BinaryReader(std::ifstream in, uint64_t size)
      : in_(std::move(in)), size_(size) {}
  std::ifstream in_;
  uint64_t size_ = 0;
  uint64_t pos_ = 0;  // bytes consumed so far; never exceeds size_
  uint32_t crc_ = 0;
};

/// Whole-file integrity check for the FAE container formats: the last four
/// bytes store the CRC-32 of everything before them. Returns NotFound when
/// the file is absent and DataLoss on any mismatch (truncation, bit flips,
/// or a file that never carried a checksum). Formats call this *before*
/// parsing so a corrupted file can never be half-deserialized into live
/// state.
Status VerifyFileIntegrity(const std::string& path);

/// Returns true if `path` exists and is a regular file.
bool FileExists(const std::string& path);

/// Removes `path` if present; OK when absent.
Status RemoveFile(const std::string& path);

}  // namespace fae

#endif  // FAE_UTIL_FILE_IO_H_
