#include "storage/io_util.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

namespace prorp::storage::io {
namespace {

std::atomic<size_t> g_max_bytes_per_call{0};
std::atomic<uint64_t> g_eintr_burst{0};

/// Returns true when this call should fail with EINTR (test hook).
bool ConsumeEintr() {
  uint64_t n = g_eintr_burst.load(std::memory_order_relaxed);
  while (n > 0) {
    if (g_eintr_burst.compare_exchange_weak(n, n - 1,
                                            std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

size_t ClampChunk(size_t n) {
  size_t cap = g_max_bytes_per_call.load(std::memory_order_relaxed);
  return (cap != 0 && cap < n) ? cap : n;
}

Status Errno(const char* what, const char* verb) {
  return Status::IoError(std::string(what) + ": " + verb + " failed: " +
                         std::strerror(errno));
}

}  // namespace

Result<size_t> ReadUpTo(int fd, void* buf, size_t n, const char* what) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    if (ConsumeEintr()) {
      errno = EINTR;
      continue;
    }
    ssize_t got = ::read(fd, p + done, ClampChunk(n - done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Errno(what, "read");
    }
    if (got == 0) break;  // true end-of-file
    done += static_cast<size_t>(got);
  }
  return done;
}

Status WriteZeros(int fd, uint64_t offset, uint64_t n, const char* what) {
  static constexpr size_t kPage = 4096;
  static constexpr size_t kIovecs = 64;  // 256 KiB per call
  alignas(kPage) static const uint8_t kZeroPage[kPage] = {};
  iovec iov[kIovecs];
  for (iovec& v : iov) {
    v.iov_base = const_cast<uint8_t*>(kZeroPage);
    v.iov_len = kPage;
  }
  uint64_t done = 0;
  while (done < n) {
    if (ConsumeEintr()) {
      errno = EINTR;
      continue;
    }
    const size_t chunk = ClampChunk(static_cast<size_t>(
        std::min<uint64_t>(n - done, kIovecs * kPage)));
    const int count = static_cast<int>((chunk + kPage - 1) / kPage);
    iov[count - 1].iov_len = chunk - (count - 1) * kPage;
    ssize_t put = ::pwritev(fd, iov, count,
                            static_cast<off_t>(offset + done));
    iov[count - 1].iov_len = kPage;
    if (put < 0) {
      if (errno == EINTR) continue;
      return Errno(what, "pwritev");
    }
    if (put == 0) {
      errno = EIO;
      return Errno(what, "pwritev");
    }
    done += static_cast<uint64_t>(put);
  }
  return Status::OK();
}

Status SyncStream(FILE* f) {
  if (std::fflush(f) != 0) return Status::IoError("fflush failed");
  if (::fsync(::fileno(f)) != 0) return Status::IoError("fsync failed");
  return Status::OK();
}

Status PublishFile(const std::string& tmp, const std::string& path,
                   bool sync, const char* what) {
  if (::renameat2(AT_FDCWD, tmp.c_str(), AT_FDCWD, path.c_str(),
                  RENAME_EXCHANGE) == 0) {
    // `tmp` now names the previous file.
    if (::unlink(tmp.c_str()) != 0) return Errno(what, "unlink");
  } else if ((errno != ENOENT && errno != EINVAL) ||
             std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status failed = Errno(what, "rename");
    std::remove(tmp.c_str());
    return failed;
  }
  if (sync) return SyncParentDir(path);
  return Status::OK();
}

Status SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open parent dir: " + dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError("parent dir fsync failed: " + dir);
  return Status::OK();
}

void SetMaxBytesPerCallForTest(size_t max_bytes) {
  g_max_bytes_per_call.store(max_bytes, std::memory_order_relaxed);
}

void SetEintrBurstForTest(uint64_t count) {
  g_eintr_burst.store(count, std::memory_order_relaxed);
}

void ResetIoFaultsForTest() {
  g_max_bytes_per_call.store(0, std::memory_order_relaxed);
  g_eintr_burst.store(0, std::memory_order_relaxed);
}

}  // namespace prorp::storage::io
