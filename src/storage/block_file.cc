#include "storage/block_file.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/files.h"
#include "common/strings.h"
#include "recovery/crc32.h"
#include "recovery/state_codec.h"

namespace dsms {
namespace {

constexpr char kBlockMagic[8] = {'D', 'S', 'M', 'S', 'B', 'L', 'K', '2'};
constexpr char kRetiredMagic[8] = {'D', 'S', 'M', 'S', 'B', 'L', 'K', '1'};

// magic + u32 meta_crc + u32 meta_len.
constexpr size_t kPrefixLen = 16;
// block id, four timestamps, row count, key field, keyed-slice count.
constexpr size_t kMetaFixedLen = 8 + 4 * 8 + 3 * 4;
constexpr size_t kKeyedEntryLen = 8 + 8 + 4 + 4;
constexpr size_t kKeylessEntryLen = 8 + 4 + 4;
// Stack buffer of a keyed read's header compare: holds the prefix and the
// directory of any block with up to ~165 distinct key hashes.
constexpr size_t kHeadStack = 4096;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t hash, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

uint32_t LoadLe32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

uint64_t LoadLe64(const char* p) {
  return static_cast<uint64_t>(LoadLe32(p)) |
         (static_cast<uint64_t>(LoadLe32(p + 4)) << 32);
}

class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// Reads up to `len` bytes at `offset`, stopping early only at end of
/// file. Returns the byte count, or -1 with errno set.
ssize_t PreadFull(int fd, char* buf, size_t len, uint64_t offset) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::pread(fd, buf + done, len - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

struct SliceRef {
  uint64_t offset = 0;
  uint32_t len = 0;
  uint32_t crc = 0;
};

/// The decoded meta section minus the directory entries, which readers
/// walk in place.
struct Meta {
  BlockFileContents header;  // rows left empty
  uint32_t nrows = 0;
  uint32_t nkeyed = 0;
  const char* directory = nullptr;  // first keyed entry
  uint64_t end = 0;                 // file offset where the slices start
};

/// Directory entries; `directory` points at the first keyed entry.
SliceRef KeyedEntry(const char* directory, uint32_t i) {
  const char* e = directory + static_cast<size_t>(i) * kKeyedEntryLen;
  return {LoadLe64(e + 8), LoadLe32(e + 16), LoadLe32(e + 20)};
}

uint64_t KeyedEntryHash(const char* directory, uint32_t i) {
  return LoadLe64(directory + static_cast<size_t>(i) * kKeyedEntryLen);
}

SliceRef KeylessEntry(const char* directory, uint32_t nkeyed) {
  const char* e = directory + static_cast<size_t>(nkeyed) * kKeyedEntryLen;
  return {LoadLe64(e), LoadLe32(e + 8), LoadLe32(e + 12)};
}

/// Checks the magic and returns the meta length. `n` is how many bytes of
/// the file `buf` holds (at least the prefix when the file has one).
Status CheckPrefix(const std::string& path, const char* buf, size_t n,
                   uint32_t* meta_len) {
  if (n >= sizeof(kRetiredMagic) &&
      memcmp(buf, kRetiredMagic, sizeof(kRetiredMagic)) == 0) {
    return InternalError(StrFormat(
        "%s: DSMSBLK1 block file from an older version; this version reads "
        "only DSMSBLK2 (remove the spill directory and its checkpoints)",
        path.c_str()));
  }
  if (n < kPrefixLen || memcmp(buf, kBlockMagic, sizeof(kBlockMagic)) != 0) {
    return InternalError(StrFormat("%s: not a block file", path.c_str()));
  }
  *meta_len = LoadLe32(buf + 12);
  if (*meta_len < kMetaFixedLen + kKeylessEntryLen) {
    return InternalError(StrFormat("%s: malformed block meta", path.c_str()));
  }
  return OkStatus();
}

/// Verifies the meta CRC over bytes [12, 16 + meta_len) of `buf` and
/// decodes the header fields.
Status ParseMeta(const std::string& path, const char* buf, uint32_t meta_len,
                 Meta* meta) {
  if (Crc32(buf + 12, 4 + static_cast<size_t>(meta_len)) !=
      LoadLe32(buf + 8)) {
    return InternalError(
        StrFormat("%s: block directory crc mismatch", path.c_str()));
  }
  StateReader r(buf + kPrefixLen, kMetaFixedLen);
  meta->header.block_id = r.U64();
  meta->header.bucket_start = r.Ts();
  meta->header.bucket_end = r.Ts();
  meta->header.min_ts = r.Ts();
  meta->header.max_ts = r.Ts();
  meta->nrows = r.U32();
  meta->header.key_field = static_cast<int32_t>(r.U32());
  meta->nkeyed = r.U32();
  if (!r.ok() || static_cast<uint64_t>(meta_len) !=
                     kMetaFixedLen +
                         static_cast<uint64_t>(meta->nkeyed) * kKeyedEntryLen +
                         kKeylessEntryLen) {
    return InternalError(StrFormat("%s: malformed block meta", path.c_str()));
  }
  meta->directory = buf + kPrefixLen + kMetaFixedLen;
  meta->end = kPrefixLen + meta_len;
  return OkStatus();
}

/// Checks one slice's CRC and decodes its rows, ordinals strictly rising.
Status DecodeSlice(const std::string& path, const char* data,
                   const SliceRef& ref, uint32_t nrows,
                   std::vector<BlockSliceRow>* rows) {
  if (Crc32(data, ref.len) != ref.crc) {
    return InternalError(
        StrFormat("%s: block slice crc mismatch at %llu", path.c_str(),
                  static_cast<unsigned long long>(ref.offset)));
  }
  StateReader r(data, ref.len);
  bool first = true;
  uint32_t prev = 0;
  while (r.remaining() > 0) {
    BlockSliceRow row;
    row.ordinal = r.U32();
    row.row = r.Tup();
    if (!r.ok() || row.ordinal >= nrows || (!first && row.ordinal <= prev)) {
      return InternalError(
          StrFormat("%s: malformed block slice", path.c_str()));
    }
    first = false;
    prev = row.ordinal;
    rows->push_back(std::move(row));
  }
  return OkStatus();
}

/// Reads the whole file behind `fd` and checks every CRC and structure
/// rule (see ReadBlockFile).
Result<BlockFileContents> ReadWholeFile(const std::string& path, int fd) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return InternalError(
        StrFormat("stat %s: %s", path.c_str(), strerror(errno)));
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  const ssize_t got = PreadFull(fd, bytes.data(), bytes.size(), 0);
  if (got < 0) {
    return InternalError(
        StrFormat("read %s: %s", path.c_str(), strerror(errno)));
  }
  bytes.resize(static_cast<size_t>(got));
  uint32_t meta_len = 0;
  DSMS_RETURN_IF_ERROR(CheckPrefix(path, bytes.data(), bytes.size(),
                                   &meta_len));
  if (bytes.size() < kPrefixLen + static_cast<size_t>(meta_len)) {
    return InternalError(StrFormat("%s: truncated block", path.c_str()));
  }
  Meta meta;
  DSMS_RETURN_IF_ERROR(ParseMeta(path, bytes.data(), meta_len, &meta));
  // Every row takes at least its 4-byte ordinal, which bounds the row
  // count before anything is sized by it.
  if (meta.nrows > bytes.size() / 4) {
    return InternalError(StrFormat("%s: malformed block meta", path.c_str()));
  }

  // The slices must tile the rest of the file in directory order, keyed
  // hashes strictly rising, and together hold every ordinal exactly once.
  std::vector<SliceRef> refs;
  refs.reserve(meta.nkeyed + 1);
  for (uint32_t i = 0; i < meta.nkeyed; ++i) {
    if (i > 0 && KeyedEntryHash(meta.directory, i) <=
                     KeyedEntryHash(meta.directory, i - 1)) {
      return InternalError(
          StrFormat("%s: block directory out of order", path.c_str()));
    }
    refs.push_back(KeyedEntry(meta.directory, i));
  }
  refs.push_back(KeylessEntry(meta.directory, meta.nkeyed));
  uint64_t expected = meta.end;
  for (const SliceRef& ref : refs) {
    if (ref.offset != expected) {
      return InternalError(
          StrFormat("%s: block slices do not tile the file", path.c_str()));
    }
    expected += ref.len;
  }
  if (expected != bytes.size()) {
    return InternalError(StrFormat("%s: truncated block", path.c_str()));
  }

  BlockFileContents block = meta.header;
  block.rows.resize(meta.nrows);
  std::vector<bool> seen(meta.nrows, false);
  std::vector<BlockSliceRow> slice;
  for (const SliceRef& ref : refs) {
    slice.clear();
    DSMS_RETURN_IF_ERROR(DecodeSlice(path, bytes.data() + ref.offset, ref,
                                     meta.nrows, &slice));
    for (BlockSliceRow& row : slice) {
      if (seen[row.ordinal]) {
        return InternalError(
            StrFormat("%s: block row %u stored twice", path.c_str(),
                      row.ordinal));
      }
      seen[row.ordinal] = true;
      block.rows[row.ordinal] = std::move(row.row);
    }
  }
  if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
    return InternalError(StrFormat("%s: block rows missing", path.c_str()));
  }
  return block;
}

}  // namespace

uint64_t HashValue(const Value& value) {
  uint64_t hash = kFnvOffset;
  uint8_t tag = static_cast<uint8_t>(value.type());
  hash = FnvMix(hash, &tag, 1);
  switch (value.type()) {
    case ValueType::kInt64: {
      int64_t v = value.int64_value();
      hash = FnvMix(hash, &v, sizeof(v));
      break;
    }
    case ValueType::kDouble: {
      // Bit pattern, so the hash is ==-consistent (distinct NaNs differ,
      // but NaN != NaN anyway).
      double d = value.double_value();
      uint64_t bits;
      memcpy(&bits, &d, sizeof(bits));
      hash = FnvMix(hash, &bits, sizeof(bits));
      break;
    }
    case ValueType::kString: {
      const std::string& s = value.string_value();
      hash = FnvMix(hash, s.data(), s.size());
      break;
    }
    case ValueType::kBool: {
      uint8_t b = value.bool_value() ? 1 : 0;
      hash = FnvMix(hash, &b, 1);
      break;
    }
  }
  return hash;
}

std::string BlockFilePath(const std::string& dir, uint64_t block_id) {
  return StrFormat("%s/block-%020llu.blk", dir.c_str(),
                   static_cast<unsigned long long>(block_id));
}

bool ParseBlockFileName(const std::string& name, uint64_t* block_id) {
  // "block-" + 20 digits + ".blk"
  if (name.size() != 6 + 20 + 4) return false;
  if (name.compare(0, 6, "block-") != 0) return false;
  if (name.compare(26, 4, ".blk") != 0) return false;
  uint64_t v = 0;
  for (size_t i = 6; i < 26; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *block_id = v;
  return true;
}

Status WriteBlockFile(const std::string& dir, const BlockFileContents& block) {
  DSMS_RETURN_IF_ERROR(EnsureDir(dir));
  // Slice order: keyed rows grouped by key hash (ties by ordinal, so each
  // slice keeps insertion order), then the key-less rows.
  const uint32_t nrows = static_cast<uint32_t>(block.rows.size());
  std::vector<std::pair<uint64_t, uint32_t>> keyed;  // (hash, ordinal)
  std::vector<uint32_t> keyless;
  for (uint32_t i = 0; i < nrows; ++i) {
    const Tuple& row = block.rows[i];
    if (block.key_field >= 0 && block.key_field < row.num_values()) {
      keyed.emplace_back(HashValue(row.value(block.key_field)), i);
    } else {
      keyless.push_back(i);
    }
  }
  std::sort(keyed.begin(), keyed.end());
  uint32_t nkeyed = 0;
  for (size_t i = 0; i < keyed.size(); ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) ++nkeyed;
  }
  const uint32_t meta_len = static_cast<uint32_t>(
      kMetaFixedLen + nkeyed * kKeyedEntryLen + kKeylessEntryLen);

  StateWriter slices;
  StateWriter directory;
  auto close_slice = [&](size_t start) {
    const uint32_t len = static_cast<uint32_t>(slices.data().size() - start);
    directory.U64(kPrefixLen + meta_len + start);
    directory.U32(len);
    directory.U32(Crc32(slices.data().data() + start, len));
  };
  for (size_t i = 0; i < keyed.size();) {
    const uint64_t hash = keyed[i].first;
    const size_t start = slices.data().size();
    for (; i < keyed.size() && keyed[i].first == hash; ++i) {
      slices.U32(keyed[i].second);
      slices.Tup(block.rows[keyed[i].second]);
    }
    directory.U64(hash);
    close_slice(start);
  }
  const size_t keyless_start = slices.data().size();
  for (uint32_t ordinal : keyless) {
    slices.U32(ordinal);
    slices.Tup(block.rows[ordinal]);
  }
  close_slice(keyless_start);

  StateWriter meta;
  meta.U32(meta_len);
  meta.U64(block.block_id);
  meta.Ts(block.bucket_start);
  meta.Ts(block.bucket_end);
  meta.Ts(block.min_ts);
  meta.Ts(block.max_ts);
  meta.U32(nrows);
  meta.U32(static_cast<uint32_t>(block.key_field));
  meta.U32(nkeyed);
  const std::string guarded = meta.Take() + directory.data();
  StateWriter crc;
  crc.U32(Crc32(guarded.data(), guarded.size()));
  std::string bytes(kBlockMagic, sizeof(kBlockMagic));
  bytes += crc.data();
  bytes += guarded;
  bytes += slices.data();

  const std::string final_path = BlockFilePath(dir, block.block_id);
  const std::string tmp_path = final_path + ".tmp";
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) {
    return InternalError(
        StrFormat("open %s: %s", tmp_path.c_str(), strerror(errno)));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return InternalError(
          StrFormat("write %s: %s", tmp_path.c_str(), strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  // The block must be durable before the rename publishes it: checkpoints
  // reference spilled blocks by id, so a visible-but-unflushed block would
  // break the kill -9 recovery contract the same way a torn checkpoint
  // would.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return InternalError(StrFormat("fsync: %s", strerror(errno)));
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return InternalError(
        StrFormat("rename %s: %s", final_path.c_str(), strerror(errno)));
  }
  return OkStatus();
}

Result<BlockFileContents> ReadBlockFile(const std::string& path) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) {
    return InternalError(
        StrFormat("open %s: %s", path.c_str(), strerror(errno)));
  }
  return ReadWholeFile(path, fd.get());
}

BlockFileReader::BlockFileReader(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

BlockFileReader::~BlockFileReader() { ::close(fd_); }

Result<std::unique_ptr<BlockFileReader>> BlockFileReader::Open(
    std::string path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return InternalError(
        StrFormat("open %s: %s", path.c_str(), strerror(errno)));
  }
  std::unique_ptr<BlockFileReader> reader(
      new BlockFileReader(std::move(path), fd));
  DSMS_RETURN_IF_ERROR(reader->Verify());
  return reader;
}

Status BlockFileReader::Verify() {
  char prefix[kPrefixLen];
  const ssize_t got = PreadFull(fd_, prefix, sizeof(prefix), 0);
  if (got < 0) {
    return InternalError(
        StrFormat("read %s: %s", path_.c_str(), strerror(errno)));
  }
  uint32_t meta_len = 0;
  DSMS_RETURN_IF_ERROR(
      CheckPrefix(path_, prefix, static_cast<size_t>(got), &meta_len));
  // The size check comes first, so a flipped length byte cannot size a
  // buffer past the file.
  const size_t meta_end = kPrefixLen + static_cast<size_t>(meta_len);
  struct stat st;
  if (::fstat(fd_, &st) != 0 || static_cast<uint64_t>(st.st_size) < meta_end) {
    return InternalError(StrFormat("%s: truncated block", path_.c_str()));
  }
  std::string bytes(meta_end, '\0');
  if (PreadFull(fd_, bytes.data(), meta_end, 0) !=
      static_cast<ssize_t>(meta_end)) {
    return InternalError(StrFormat("%s: truncated block", path_.c_str()));
  }
  Meta meta;
  DSMS_RETURN_IF_ERROR(ParseMeta(path_, bytes.data(), meta_len, &meta));
  verified_ = std::move(bytes);
  key_field_ = meta.header.key_field;
  nrows_ = meta.nrows;
  nkeyed_ = meta.nkeyed;
  return OkStatus();
}

Status BlockFileReader::ReadSlice(int key_field, uint64_t key_hash,
                                  std::vector<BlockSliceRow>* rows) {
  rows->clear();
  // The header and directory are re-read every time, exactly their
  // length, and the cached parse is trusted only while they are unchanged;
  // any difference re-runs the full check, which fails on a flipped byte.
  const size_t meta_end = verified_.size();
  char stack[kHeadStack];
  char* head = stack;
  if (meta_end > sizeof(stack)) {
    buf_.resize(meta_end);
    head = buf_.data();
  }
  const ssize_t got = PreadFull(fd_, head, meta_end, 0);
  if (got < 0) {
    return InternalError(
        StrFormat("read %s: %s", path_.c_str(), strerror(errno)));
  }
  if (static_cast<size_t>(got) != meta_end ||
      memcmp(head, verified_.data(), meta_end) != 0) {
    DSMS_RETURN_IF_ERROR(Verify());
  }
  if (key_field_ != key_field) {
    return InternalError(StrFormat(
        "%s: block sliced by field %d, probed by field %d", path_.c_str(),
        key_field_, key_field));
  }

  const char* directory = verified_.data() + kPrefixLen + kMetaFixedLen;
  uint32_t lo = 0;
  uint32_t hi = nkeyed_;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (KeyedEntryHash(directory, mid) < key_hash) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == nkeyed_ || KeyedEntryHash(directory, lo) != key_hash) {
    return OkStatus();  // no row of this key in the block
  }
  const SliceRef ref = KeyedEntry(directory, lo);
  if (ref.offset < verified_.size()) {
    return InternalError(StrFormat("%s: malformed block meta", path_.c_str()));
  }
  buf_.resize(ref.len);
  if (PreadFull(fd_, buf_.data(), ref.len, ref.offset) !=
      static_cast<ssize_t>(ref.len)) {
    return InternalError(StrFormat("%s: truncated block", path_.c_str()));
  }
  return DecodeSlice(path_, buf_.data(), ref, nrows_, rows);
}

Result<BlockFileContents> BlockFileReader::ReadAll() const {
  return ReadWholeFile(path_, fd_);
}

Status ListBlockFiles(const std::string& dir,
                      std::vector<std::pair<uint64_t, std::string>>* out) {
  out->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return OkStatus();
    return InternalError(
        StrFormat("opendir %s: %s", dir.c_str(), strerror(errno)));
  }
  while (dirent* entry = ::readdir(d)) {
    uint64_t id = 0;
    if (ParseBlockFileName(entry->d_name, &id)) {
      out->emplace_back(id, dir + "/" + entry->d_name);
    }
  }
  ::closedir(d);
  std::sort(out->begin(), out->end());
  return OkStatus();
}

}  // namespace dsms
