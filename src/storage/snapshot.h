#ifndef PRORP_STORAGE_SNAPSHOT_H_
#define PRORP_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace prorp::storage {

/// One snapshot entry: a key plus its fixed-width value bytes.
struct SnapshotEntry {
  int64_t key;
  std::vector<uint8_t> value;
};

/// Writes a checksummed full snapshot of (key, value) pairs to `path`
/// atomically (temp file + io::PublishFile).  Format:
///   [u32 magic][u32 value_width][u64 count][entries...][u32 crc]
/// where crc covers everything from value_width through the entries.
Status WriteSnapshot(const std::string& path, uint32_t value_width,
                     const std::vector<SnapshotEntry>& entries);

/// Reads a snapshot, verifying the checksum; invokes `apply` per entry in
/// file order.  NotFound if the file does not exist.
Status ReadSnapshot(
    const std::string& path, uint32_t expected_value_width,
    const std::function<Status(int64_t key, const uint8_t* value)>& apply);

/// Copies a file byte-for-byte (used by backup).  Overwrites `dst`.
Status CopyFile(const std::string& src, const std::string& dst);

}  // namespace prorp::storage

#endif  // PRORP_STORAGE_SNAPSHOT_H_
