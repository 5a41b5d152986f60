#include "storage/snapshot.h"

#include <cstdio>
#include <cstring>

#include "faults/crash_points.h"
#include "storage/crc32.h"
#include "storage/io_util.h"

namespace prorp::storage {
namespace {

constexpr uint32_t kSnapshotMagic = 0x50525053;  // "PRPS"

void AppendBytes(std::vector<uint8_t>& out, const void* p, size_t n) {
  const uint8_t* b = static_cast<const uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

}  // namespace

Status WriteSnapshot(const std::string& path, uint32_t value_width,
                     const std::vector<SnapshotEntry>& entries) {
  std::vector<uint8_t> body;
  body.reserve(16 + entries.size() * (8 + value_width));
  AppendBytes(body, &value_width, 4);
  uint64_t count = entries.size();
  AppendBytes(body, &count, 8);
  for (const SnapshotEntry& e : entries) {
    if (e.value.size() != value_width) {
      return Status::InvalidArgument("snapshot entry width mismatch");
    }
    AppendBytes(body, &e.key, 8);
    AppendBytes(body, e.value.data(), e.value.size());
  }
  uint32_t crc = Crc32(body.data(), body.size());

  std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create snapshot temp");
  bool ok = std::fwrite(&kSnapshotMagic, 4, 1, f) == 1;
  size_t half = body.size() / 2;
  ok = ok && (half == 0 || std::fwrite(body.data(), half, 1, f) == 1);
  // Crash simulation: the process dies halfway through writing the temp
  // file.  The partial .tmp is left behind and the rename never happens,
  // so recovery must still find the previous snapshot intact.
  if (Status crash = faults::HitCrashPoint(faults::kSnapshotMidCopy);
      !crash.ok()) {
    std::fclose(f);
    return crash;
  }
  ok = ok &&
       (body.size() == half ||
        std::fwrite(body.data() + half, body.size() - half, 1, f) == 1) &&
       std::fwrite(&crc, 4, 1, f) == 1;
  ok = ok && io::SyncStream(f).ok();
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("snapshot write failed");
  }
  // Crash simulation: the temp file is complete and synced, but the
  // process dies before the exchange publishes it.  Recovery must still
  // see the previous snapshot (or none), never the half-installed new one.
  if (Status crash = faults::HitCrashPoint(faults::kSnapshotPreRenameSync);
      !crash.ok()) {
    std::remove(tmp.c_str());
    return crash;
  }
  // The directory fsync makes the publish itself durable: without it a
  // crash can roll the directory entry back to the old snapshot even
  // though the data blocks were synced.
  return io::PublishFile(tmp, path, /*sync=*/true, "snapshot");
}

Status ReadSnapshot(
    const std::string& path, uint32_t expected_value_width,
    const std::function<Status(int64_t, const uint8_t*)>& apply) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no snapshot file");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 20) {
    std::fclose(f);
    return Status::Corruption("snapshot too small");
  }
  std::vector<uint8_t> buf(static_cast<size_t>(size));
  bool ok = std::fread(buf.data(), buf.size(), 1, f) == 1;
  std::fclose(f);
  if (!ok) return Status::IoError("snapshot read failed");

  uint32_t magic;
  std::memcpy(&magic, buf.data(), 4);
  if (magic != kSnapshotMagic) return Status::Corruption("bad snapshot magic");
  size_t body_len = buf.size() - 8;
  uint32_t expect_crc;
  std::memcpy(&expect_crc, buf.data() + 4 + body_len, 4);
  if (Crc32(buf.data() + 4, body_len) != expect_crc) {
    return Status::Corruption("snapshot checksum mismatch");
  }
  uint32_t value_width;
  std::memcpy(&value_width, buf.data() + 4, 4);
  if (value_width != expected_value_width) {
    return Status::Corruption("snapshot value width mismatch");
  }
  uint64_t count;
  std::memcpy(&count, buf.data() + 8, 8);
  size_t entry_size = 8 + value_width;
  if (body_len != 12 + count * entry_size) {
    return Status::Corruption("snapshot size mismatch");
  }
  const uint8_t* p = buf.data() + 16;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t key;
    std::memcpy(&key, p, 8);
    PRORP_RETURN_IF_ERROR(apply(key, p + 8));
    p += entry_size;
  }
  return Status::OK();
}

Status CopyFile(const std::string& src, const std::string& dst) {
  FILE* in = std::fopen(src.c_str(), "rb");
  if (in == nullptr) return Status::NotFound("copy source missing: " + src);
  FILE* out = std::fopen(dst.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    return Status::IoError("cannot create copy destination: " + dst);
  }
  uint8_t buf[1 << 16];
  bool ok = true;
  for (;;) {
    size_t got = std::fread(buf, 1, sizeof(buf), in);
    if (got == 0) break;
    if (std::fwrite(buf, 1, got, out) != got) {
      ok = false;
      break;
    }
  }
  ok = !std::ferror(in) && ok;
  std::fclose(in);
  ok = ok && io::SyncStream(out).ok();
  ok = (std::fclose(out) == 0) && ok;
  if (!ok) return Status::IoError("file copy failed");
  // A backup that evaporates on power loss is not a backup: sync the
  // destination's directory entry too before reporting success.
  PRORP_RETURN_IF_ERROR(io::SyncParentDir(dst));
  return Status::OK();
}

}  // namespace prorp::storage
