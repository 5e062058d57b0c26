#include "util/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>

namespace fae {
namespace {

// Large reads are split so each chunk is checksummed while it is still in
// cache, rather than in a second pass over the whole buffer.
constexpr size_t kReadChunkBytes = 256 << 10;

/// fsync(2) of a file's data, or of a directory's entries.
Status SyncPath(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(),
                        O_RDONLY | O_CLOEXEC | (directory ? O_DIRECTORY : 0));
  if (fd < 0) return Status::IOError("cannot open to sync: " + path);
  const int rc = ::fsync(fd);
  // A file system that cannot sync a directory says so with EINVAL; the
  // rename is then as durable as it can be made.
  const bool ok = rc == 0 || (directory && errno == EINVAL);
  ::close(fd);
  if (!ok) return Status::IOError("fsync failed: " + path);
  return Status::OK();
}

}  // namespace

StatusOr<BinaryWriter> BinaryWriter::Open(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  return BinaryWriter(std::move(out));
}

StatusOr<BinaryWriter> BinaryWriter::OpenAtomic(const std::string& path) {
  const std::string temp = path + ".tmp";
  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for writing: " + temp);
  }
  BinaryWriter w(std::move(out));
  w.temp_path_ = temp;
  w.final_path_ = path;
  return w;
}

Status BinaryWriter::WriteBytes(const void* data, size_t n) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!out_.good()) return Status::IOError("write failed");
  crc_ = Crc32(data, n, crc_);
  bytes_ += n;
  return Status::OK();
}

Status BinaryWriter::WriteU32(uint32_t v) { return WriteBytes(&v, sizeof(v)); }
Status BinaryWriter::WriteU64(uint64_t v) { return WriteBytes(&v, sizeof(v)); }
Status BinaryWriter::WriteF32(float v) { return WriteBytes(&v, sizeof(v)); }
Status BinaryWriter::WriteF64(double v) { return WriteBytes(&v, sizeof(v)); }

Status BinaryWriter::WriteString(const std::string& s) {
  FAE_RETURN_IF_ERROR(WriteU64(s.size()));
  return WriteBytes(s.data(), s.size());
}

Status BinaryWriter::Close() {
  out_.flush();
  if (!out_.good()) return Status::IOError("flush failed");
  out_.close();
  if (!temp_path_.empty()) {
    // Atomic writer closed without Commit: abandon the temp file so a
    // failed save leaves no debris next to the intact previous file.
    (void)RemoveFile(temp_path_);
    temp_path_.clear();
  }
  return Status::OK();
}

Status BinaryWriter::Commit() {
  out_.flush();
  if (!out_.good()) return Status::IOError("flush failed");
  out_.close();
  if (temp_path_.empty()) return Status::OK();
  // The data reaches the disk before the rename can: otherwise, after a
  // power loss, the new name could point at a file whose blocks never
  // arrived, with the previous good file already replaced.
  if (Status synced = SyncPath(temp_path_, /*directory=*/false); !synced.ok()) {
    (void)RemoveFile(temp_path_);
    return synced;
  }
  std::error_code ec;
  std::filesystem::rename(temp_path_, final_path_, ec);
  if (ec) {
    (void)RemoveFile(temp_path_);
    return Status::IOError("rename failed: " + temp_path_ + " -> " +
                           final_path_);
  }
  temp_path_.clear();
  // And the rename itself is durable once the directory entry is.
  const std::string dir =
      std::filesystem::path(final_path_).parent_path().string();
  return SyncPath(dir.empty() ? "." : dir, /*directory=*/true);
}

StatusOr<BinaryReader> BinaryReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  return BinaryReader(std::move(in), static_cast<uint64_t>(size));
}

Status BinaryReader::ReadBytes(void* data, size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const size_t chunk = std::min(n, kReadChunkBytes);
    in_.read(p, static_cast<std::streamsize>(chunk));
    const size_t got = static_cast<size_t>(in_.gcount());
    // Clamped so RemainingBytes() cannot wrap if the file grew after Open.
    pos_ = std::min(size_, pos_ + got);
    crc_ = Crc32(p, got, crc_);
    if (got != chunk) return Status::DataLoss("unexpected end of file");
    p += chunk;
    n -= chunk;
  }
  return Status::OK();
}

StatusOr<uint32_t> BinaryReader::ReadU32() {
  uint32_t v = 0;
  FAE_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
  return v;
}

StatusOr<uint64_t> BinaryReader::ReadU64() {
  uint64_t v = 0;
  FAE_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
  return v;
}

StatusOr<float> BinaryReader::ReadF32() {
  float v = 0;
  FAE_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
  return v;
}

StatusOr<double> BinaryReader::ReadF64() {
  double v = 0;
  FAE_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
  return v;
}

StatusOr<std::string> BinaryReader::ReadString() {
  FAE_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n > RemainingBytes()) {
    return Status::DataLoss("string length exceeds file remainder");
  }
  std::string s(n, '\0');
  FAE_RETURN_IF_ERROR(ReadBytes(s.data(), n));
  return s;
}

Status VerifyFileIntegrity(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  const std::streamoff size = in.tellg();
  // Smallest well-formed container: magic + version + trailer + crc.
  if (size < 16) {
    return Status::DataLoss("file too short for an integrity footer: " +
                            path);
  }
  in.seekg(0, std::ios::beg);
  uint64_t remaining = static_cast<uint64_t>(size) - sizeof(uint32_t);
  uint32_t crc = 0;
  char buf[1 << 16];
  while (remaining > 0) {
    const size_t chunk =
        remaining < sizeof(buf) ? static_cast<size_t>(remaining) : sizeof(buf);
    in.read(buf, static_cast<std::streamsize>(chunk));
    if (static_cast<size_t>(in.gcount()) != chunk) {
      return Status::IOError("read failed during integrity check: " + path);
    }
    crc = Crc32(buf, chunk, crc);
    remaining -= chunk;
  }
  uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (static_cast<size_t>(in.gcount()) != sizeof(stored)) {
    return Status::IOError("read failed during integrity check: " + path);
  }
  if (crc != stored) {
    return Status::DataLoss(
        "checksum mismatch (file is corrupted or truncated): " + path);
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

Status RemoveFile(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) return Status::IOError("remove failed: " + path);
  return Status::OK();
}

}  // namespace fae
