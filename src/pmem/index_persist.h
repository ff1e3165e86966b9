// Crash-consistent index checkpoint files (ROADMAP item 1, checkpoint
// half): a table-agnostic container for serialized DRAM index state, so
// restart is a load plus a bounded tail replay instead of a full rebuild.
//
// The file discipline is shared with the sharded-store manifest
// (AtomicFileWriter below): write everything to `<path>.tmp`, fdatasync
// it, publish with a single rename, then fsync the parent directory so
// the rename itself survives a power loss. A reader first deletes any
// stray `.tmp` (a temp file is never authoritative), then validates
// magic, version, kind tag, generation, the payload length against the
// file's real size, and a checksum over header and payload. Any failure
// is reported loudly on stderr and the caller falls back to its
// full-scan recovery path — a checkpoint can make recovery faster, never
// wrong.
//
// The payload is read straight into one 64-byte-aligned buffer that the
// caller may adopt as live memory (the hybrid tier lays its segment
// images out so that the buffer IS its segment slab): no intermediate
// copy, no zero-fill.
//
// The generation field ties a checkpoint to one lifetime of its pool:
// the owning table bumps a persistent open-generation counter on every
// open and stamps checkpoints with the current value. A run that mutates
// the pool without checkpointing therefore invalidates older checkpoint
// files automatically (they fail the generation check on the next open).
//
// Crash points (swept under torn-write simulation by checkpoint_test):
//   ckpt_after_temp_write  - temp file fully written, not yet flushed
//   ckpt_after_checksum    - temp file flushed and closed, not renamed
//   ckpt_after_rename      - checkpoint published

#ifndef DASH_PM_PMEM_INDEX_PERSIST_H_
#define DASH_PM_PMEM_INDEX_PERSIST_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/aligned_alloc.h"

namespace dash::pmem {

// Caller-defined identity and lifetime stamp for a checkpoint file.
struct CheckpointMeta {
  // Identifies the producing table flavour (index kind, key mode,
  // geometry). A reader rejects a tag it did not write.
  uint64_t kind_tag = 0;
  // Pool open-generation the checkpoint belongs to.
  uint64_t generation = 0;
};

enum class CheckpointLoad : uint8_t {
  kOk = 0,
  kMissing,          // no file (silent: first open or checkpoints off)
  kIoError,          // unreadable file / read error mid-payload
  kBadMagic,
  kBadVersion,       // includes every pre-v2 file
  kKindMismatch,     // written by a different table flavour
  kStaleGeneration,  // pool was reopened (and possibly mutated) since
  kBadChecksum,      // torn, truncated, or bit-flipped
};

const char* CheckpointLoadName(CheckpointLoad status);

// Bytes of the file header that precedes the payload.
inline constexpr size_t kCheckpointHeaderBytes = 48;

// A loaded payload: `size` bytes at 64-byte alignment.
struct CheckpointPayload {
  util::AlignedBytes data;
  size_t size = 0;
};

// Writes `payload` to `path` crash-consistently and durably. Returns
// false (with a stderr diagnostic) on I/O failure; the previous
// checkpoint, if any, stays intact in that case.
bool WriteCheckpointFile(const std::string& path, const CheckpointMeta& meta,
                         const void* payload, size_t payload_bytes);

// Reads and validates `path`. On kOk, `*payload` holds the stored bytes
// and `*meta` the stored tag/generation. `expect` drives the kind and
// generation checks. A length field that disagrees with the file size is
// rejected before anything is allocated. Every non-kOk outcome except
// kMissing logs the reason to stderr (rejections must be loud).
CheckpointLoad ReadCheckpointFile(const std::string& path,
                                  const CheckpointMeta& expect,
                                  CheckpointPayload* payload,
                                  CheckpointMeta* meta = nullptr);

// Removes `path` and its temp sibling (used by tests and by benches
// forcing the full-scan path).
void RemoveCheckpointFile(const std::string& path);

// Atomic, durable replacement of a file:
//   AtomicFileWriter w(path);          // creates <path>.tmp
//   w.Write(...) ...; w.Sync();        // all bytes, then fdatasync
//   w.Publish();                       // rename + fsync(parent dir)
// Any failed step returns false and removes the temp; the previous file
// at `path` is untouched until Publish succeeds. Destruction without
// Publish only closes the descriptor — a crash leaves the temp behind,
// and readers discard it.
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();
  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  bool Write(const void* data, size_t bytes);
  bool Sync();
  bool Publish();

 private:
  bool Fail();

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
};

}  // namespace dash::pmem

#endif  // DASH_PM_PMEM_INDEX_PERSIST_H_
