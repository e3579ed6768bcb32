#ifndef DSMS_STORAGE_BLOCK_FILE_H_
#define DSMS_STORAGE_BLOCK_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "core/tuple.h"
#include "core/value.h"

namespace dsms {

/// Payload of one spilled state block: the full insertion sequence of the
/// block's bucket. Files are immutable — a block is only ever written once
/// (when first evicted), read back any number of times, and unlinked whole;
/// the live expiry prefix is operator metadata kept outside the file, so
/// load/evict cycles never rewrite it.
struct BlockFileContents {
  uint64_t block_id = 0;
  Timestamp bucket_start = 0;
  Timestamp bucket_end = 0;
  Timestamp min_ts = kMaxTimestamp;
  Timestamp max_ts = kMinTimestamp;
  std::vector<Tuple> rows;
  /// Equi-key field the file is sliced by. -1 (unkeyed) writes every row
  /// into the one key-less slice.
  int key_field = -1;
};

/// One row of a keyed slice: the row and its position in the block's
/// insertion sequence (so the reader can still honour an expiry prefix
/// that was advanced while the block was resident).
struct BlockSliceRow {
  uint32_t ordinal = 0;
  Tuple row;
};

/// "<dir>/block-<id 20 digits>.blk".
std::string BlockFilePath(const std::string& dir, uint64_t block_id);

/// Parses a directory entry name of the layout above; false for foreign
/// files (orphan GC uses this to skip anything it does not own).
bool ParseBlockFileName(const std::string& name, uint64_t* block_id);

/// Atomically writes `block` as its canonical file in `dir` (write-temp +
/// fsync + rename, same discipline as checkpoints): a crash mid-write leaves
/// only an ignored .tmp file, never a half block under the final name.
///
/// Layout "DSMSBLK2" (integers little-endian):
///
///   magic "DSMSBLK2" | u32 meta_crc | u32 meta_len | meta | slices
///
/// meta_crc covers meta_len and meta. meta holds the block header
/// (id, bucket bounds, min/max ts, row count, key field, keyed-slice
/// count), then the directory: one {u64 key_hash, u64 offset, u32 len,
/// u32 crc} entry per keyed slice, sorted by key hash, and a final
/// {u64 offset, u32 len, u32 crc} entry for the key-less slice. A slice
/// holds the rows of one key hash (rows without the key field go to the
/// key-less slice) in insertion order, each as u32 ordinal + tuple. Slices
/// follow the meta back to back in directory order and end the file.
Status WriteBlockFile(const std::string& dir, const BlockFileContents& block);

/// Reads one whole block file, checks the meta CRC and every slice CRC,
/// and rebuilds the insertion order from the ordinals. Loads are
/// fail-stop for the caller: a corrupt block means the durable tier lied,
/// and no graceful answer exists that preserves byte-identical replay.
Result<BlockFileContents> ReadBlockFile(const std::string& path);

/// One spilled block file held open: a read-only descriptor plus the
/// header and directory bytes that passed their CRC when the file was
/// opened. The cached parse is trusted only while the bytes on disk still
/// compare equal to that verified copy, so a flipped byte anywhere in the
/// header or directory still fails the next read.
class BlockFileReader {
 public:
  /// Opens `path` and verifies its header and directory.
  static Result<std::unique_ptr<BlockFileReader>> Open(std::string path);
  ~BlockFileReader();

  BlockFileReader(const BlockFileReader&) = delete;
  BlockFileReader& operator=(const BlockFileReader&) = delete;

  /// Keyed read: re-reads the header and directory (exactly their length)
  /// and compares them with the verified copy, re-running the full check
  /// on any difference; finds `key_hash` by binary search, then reads and
  /// CRC-checks only that slice. `*rows` receives the slice's rows in
  /// insertion order (empty when the block holds no row of that hash).
  /// `key_field` must be the field the file was sliced by.
  Status ReadSlice(int key_field, uint64_t key_hash,
                   std::vector<BlockSliceRow>* rows);

  /// Whole-block read through the open descriptor, with every check of
  /// ReadBlockFile.
  Result<BlockFileContents> ReadAll() const;

 private:
  BlockFileReader(std::string path, int fd);
  /// Reads the header and directory afresh, checks them, and makes them
  /// the verified copy.
  Status Verify();

  std::string path_;
  int fd_;
  /// Bytes [0, 16 + meta_len) of the file as last verified.
  std::string verified_;
  int key_field_ = -1;
  uint32_t nrows_ = 0;
  uint32_t nkeyed_ = 0;
  /// Reused for directories larger than the stack buffer and for slices.
  std::string buf_;
};

/// All block files in `dir` as (id, full path), sorted by id. Missing
/// directory is an empty listing, not an error.
Status ListBlockFiles(const std::string& dir,
                      std::vector<std::pair<uint64_t, std::string>>* out);

/// Hash of a Value consistent with operator== (type tag + payload; doubles
/// by bit pattern). Keys both the per-block indexes and the slices of
/// block files. Collisions are tolerated — keyed probes re-verify with
/// operator==.
uint64_t HashValue(const Value& value);

}  // namespace dsms

#endif  // DSMS_STORAGE_BLOCK_FILE_H_
