#ifndef PRORP_STORAGE_IO_UTIL_H_
#define PRORP_STORAGE_IO_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace prorp::storage::io {

/// Full-transfer syscall wrappers.  POSIX allows read to transfer fewer
/// bytes than requested (signal interruption, pipe-ish media) and to fail
/// outright with EINTR.  WAL replay must not mistake either for a torn
/// frame, so it reads through this wrapper, which retries on EINTR and
/// resumes after short transfers until the full count is moved, end of
/// file is reached, or a real error occurs.  (WAL appends make no
/// read/write calls: they are copied into a mapped tail, wal.h.)
///
/// `what` names the caller in error messages ("WAL replay").

/// Reads up to `n` bytes from the current offset, retrying EINTR and
/// resuming after short reads.  Returns the number of bytes actually
/// read, which is < `n` only at end-of-file.  The WAL replay loop uses
/// this: a genuinely missing tail is a torn record, but a signal must
/// not masquerade as one.
Result<size_t> ReadUpTo(int fd, void* buf, size_t n, const char* what);

/// fsyncs the directory containing `path`, making the entry itself (a
/// rename or creation) durable.  Every atomic-publish writer (snapshots,
/// control-plane checkpoints) needs this: without it a crash can roll the
/// directory entry back even though the data blocks were synced.
Status SyncParentDir(const std::string& path);

// ---------------------------------------------------------------------------
// Test-only fault interposition
// ---------------------------------------------------------------------------

/// Caps the bytes any single underlying syscall transfers (0 = no cap).
/// Lets tests prove the wrappers reassemble partial transfers.
void SetMaxBytesPerCallForTest(size_t max_bytes);

/// Makes the next `count` underlying syscalls fail with EINTR before
/// touching the fd.  Decrements per intercepted call across all wrappers.
void SetEintrBurstForTest(uint64_t count);

/// Clears both interposition hooks.
void ResetIoFaultsForTest();

}  // namespace prorp::storage::io

#endif  // PRORP_STORAGE_IO_UTIL_H_
