#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// Crash-safe file writing shared by every on-disk artifact.
///
/// One policy for the whole tree: a file that matters is written to a
/// sibling temp path and atomically renamed into place, so a reader (or a
/// post-crash resume) only ever sees either the previous complete file or
/// the new complete file — never a plausible-looking truncated archive.
/// `durable` additionally fsyncs the bytes before the rename and the parent
/// directory after it, which is what makes the rename itself survive power
/// loss; scratch protocol files skip the fsyncs (their lifetime is one
/// worker invocation) but keep the atomicity.
namespace mflush::fsio {

/// Write `bytes` to `path` via write-temp-then-atomic-rename. The temp
/// name embeds pid + a process-unique counter, so concurrent writers of
/// the same target cannot collide mid-write (last rename wins whole).
/// Throws std::runtime_error naming the path on any failure; the temp file
/// never outlives a failed attempt.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes,
                       bool durable = false);

/// Whether `path` is a write_file_atomic temp file whose writer is gone:
/// it has the `<target>.tmp.<pid>.<n>` shape and no process <pid> is
/// alive. A temp file whose writer still runs may be mid-write, so it is
/// never debris — in a directory several processes write into, only
/// orphaned temps are safe to sweep.
[[nodiscard]] bool is_orphaned_temp(const std::string& path);

/// fsync a directory so a just-renamed/created entry inside it is durable.
/// Throws std::runtime_error when the directory cannot be opened or synced.
void fsync_dir(const std::string& dir);

/// Whole-file read into a byte vector; throws std::runtime_error naming
/// `what` and the path when the path is not a regular file or cannot be
/// opened or read.
[[nodiscard]] std::vector<std::uint8_t> read_file_bytes(
    const std::string& path, const char* what);

}  // namespace mflush::fsio
