#ifndef PRORP_STORAGE_IO_UTIL_H_
#define PRORP_STORAGE_IO_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace prorp::storage::io {

/// Full-transfer syscall wrappers.  POSIX allows read and write to
/// transfer fewer bytes than requested (signal interruption, pipe-ish
/// media) and to fail outright with EINTR.  WAL replay must not mistake
/// either for a torn frame, nor a WAL cut leave a stale frame behind, so
/// both go through these wrappers, which retry on EINTR and resume after
/// short transfers until the full count is moved, end of file is reached,
/// or a real error occurs.  (WAL appends make no read/write calls: they
/// are copied into a mapped tail, wal.h.)
///
/// `what` names the caller in error messages ("WAL replay").

/// Reads up to `n` bytes from the current offset, retrying EINTR and
/// resuming after short reads.  Returns the number of bytes actually
/// read, which is < `n` only at end-of-file.  The WAL replay loop uses
/// this: a genuinely missing tail is a torn record, but a signal must
/// not masquerade as one.
Result<size_t> ReadUpTo(int fd, void* buf, size_t n, const char* what);

/// Overwrites bytes [offset, offset + n) of `fd` with zeros, retrying
/// EINTR and resuming after short writes.  Every iovec of the pwritev
/// points at one static zero page, so no buffer of `n` bytes is
/// allocated.  Over bytes the file already holds, the file keeps its
/// size and its blocks.
Status WriteZeros(int fd, uint64_t offset, uint64_t n, const char* what);

/// Forces a stream's bytes onto the medium.  fclose alone only drains
/// stdio buffers into the page cache; a crash after it can still erase
/// the file's contents.
Status SyncStream(FILE* f);

/// Publishes the complete temp file `tmp` under `path`, the tail of every
/// atomic-publish writer (snapshots, control-plane checkpoints).  The
/// publish exchanges the two names (renameat2 RENAME_EXCHANGE) and then
/// unlinks `tmp`, which by then names the previous file: ext4 flushes a
/// file renamed over another one and waits on that I/O when it drops the
/// replaced inode, and an exchange replaces nothing.  Plain rename is
/// used when `path` does not exist yet (ENOENT) or the file system cannot
/// exchange (EINVAL).  A crash between the exchange and the unlink leaves
/// the previous file, intact, in `tmp`; readers open `path` only.  With
/// `sync` the parent directory is fsynced last, making the publish
/// durable (`tmp` must already be synced).  On a failed publish `tmp` is
/// removed.  `what` names the caller in error messages ("checkpoint").
Status PublishFile(const std::string& tmp, const std::string& path,
                   bool sync, const char* what);

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
