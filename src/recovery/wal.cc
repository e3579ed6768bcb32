#include "recovery/wal.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/files.h"
#include "common/strings.h"
#include "recovery/crc32.h"
#include "recovery/state_codec.h"

namespace dsms {
namespace {

constexpr char kWalMagic[8] = {'D', 'S', 'M', 'S', 'W', 'A', 'L', '1'};
constexpr size_t kSegmentHeaderBytes = 16;  // magic + u64 first_index
constexpr size_t kRecordHeaderBytes = 8;    // u32 len + u32 crc

std::string SegmentName(uint64_t first_index) {
  return StrFormat("wal-%020llu.seg",
                   static_cast<unsigned long long>(first_index));
}

/// Parses "wal-<decimal>.seg"; returns false for anything else.
bool ParseSegmentName(const std::string& name, uint64_t* first_index) {
  if (name.size() != 4 + 20 + 4) return false;
  if (name.compare(0, 4, "wal-") != 0) return false;
  if (name.compare(24, 4, ".seg") != 0) return false;
  uint64_t v = 0;
  for (size_t i = 4; i < 24; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *first_index = v;
  return true;
}

Status ListSegments(const std::string& dir,
                    std::vector<std::pair<uint64_t, std::string>>* out) {
  out->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return OkStatus();
    return InternalError(
        StrFormat("opendir %s: %s", dir.c_str(), strerror(errno)));
  }
  while (dirent* entry = ::readdir(d)) {
    uint64_t first = 0;
    if (ParseSegmentName(entry->d_name, &first)) {
      out->emplace_back(first, dir + "/" + entry->d_name);
    }
  }
  ::closedir(d);
  std::sort(out->begin(), out->end());
  return OkStatus();
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return InternalError(
        StrFormat("open %s: %s", path.c_str(), strerror(errno)));
  }
  out->clear();
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      out->append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ::close(fd);
    if (n < 0) {
      return InternalError(
          StrFormat("read %s: %s", path.c_str(), strerror(errno)));
    }
    return OkStatus();
  }
}

}  // namespace

const char* WalSyncPolicyToString(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kNone:
      return "none";
    case WalSyncPolicy::kInterval:
      return "interval";
    case WalSyncPolicy::kEveryFrame:
      return "every_frame";
  }
  return "unknown";
}

WalWriter::WalWriter(WalOptions options) : options_(std::move(options)) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

Status WalWriter::WriteFully(const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd_, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return InternalError(StrFormat("wal write: %s", strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return OkStatus();
}

Status WalWriter::OpenSegment(uint64_t first_index, bool fresh) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const std::string path = options_.dir + "/" + SegmentName(first_index);
  int flags = fresh ? (O_WRONLY | O_CREAT | O_TRUNC) : (O_WRONLY | O_APPEND);
  fd_ = ::open(path.c_str(), flags, 0666);
  if (fd_ < 0) {
    return InternalError(
        StrFormat("open %s: %s", path.c_str(), strerror(errno)));
  }
  segment_first_ = first_index;
  if (fresh) {
    std::string bytes(kWalMagic, sizeof(kWalMagic));
    StateWriter idx;
    idx.U64(first_index);
    bytes += idx.data();
    DSMS_RETURN_IF_ERROR(WriteFully(bytes.data(), bytes.size()));
    segment_size_ = bytes.size();
    bytes_since_sync_ += bytes.size();
  } else {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return InternalError(StrFormat("fstat: %s", strerror(errno)));
    }
    segment_size_ = static_cast<uint64_t>(st.st_size);
  }
  return OkStatus();
}

Status WalWriter::Open(uint64_t next_index) {
  if (fd_ >= 0) return FailedPreconditionError("wal already open");
  DSMS_RETURN_IF_ERROR(EnsureDir(options_.dir));
  next_index_ = next_index;
  std::vector<std::pair<uint64_t, std::string>> segments;
  DSMS_RETURN_IF_ERROR(ListSegments(options_.dir, &segments));
  // Reopen the newest segment iff the continuation index falls inside it
  // (the normal post-recovery case: ReadWalTail just truncated its tail).
  if (!segments.empty() && segments.back().first <= next_index) {
    return OpenSegment(segments.back().first, /*fresh=*/false);
  }
  return OpenSegment(next_index, /*fresh=*/true);
}

Status WalWriter::RotateIfNeeded() {
  if (segment_size_ < options_.segment_bytes) return OkStatus();
  // Seal the full segment: its bytes must be durable before the name of
  // the next segment claims the continuation.
  if (::fsync(fd_) != 0) {
    return InternalError(StrFormat("wal fsync: %s", strerror(errno)));
  }
  synced_bytes_ += bytes_since_sync_;
  bytes_since_sync_ = 0;
  return OpenSegment(next_index_, /*fresh=*/true);
}

Status WalWriter::Append(Timestamp arrival, int64_t conn_id,
                         const std::string& frame) {
  if (fd_ < 0) return FailedPreconditionError("call Open() first");
  DSMS_RETURN_IF_ERROR(RotateIfNeeded());

  StateWriter payload;
  payload.Ts(arrival);
  payload.I64(conn_id);
  payload.U32(static_cast<uint32_t>(frame.size()));
  std::string body = payload.Take();
  body += frame;

  StateWriter record;
  record.U32(static_cast<uint32_t>(body.size()));
  record.U32(Crc32(body.data(), body.size()));
  std::string bytes = record.Take();
  bytes += body;

  DSMS_RETURN_IF_ERROR(WriteFully(bytes.data(), bytes.size()));
  segment_size_ += bytes.size();
  bytes_since_sync_ += bytes.size();
  ++appends_;
  ++next_index_;

  switch (options_.sync) {
    case WalSyncPolicy::kNone:
      break;
    case WalSyncPolicy::kInterval:
      if (bytes_since_sync_ >= options_.sync_interval_bytes) {
        DSMS_RETURN_IF_ERROR(Sync());
      }
      break;
    case WalSyncPolicy::kEveryFrame:
      DSMS_RETURN_IF_ERROR(Sync());
      break;
  }
  return OkStatus();
}

Status WalWriter::Sync() {
  if (fd_ < 0) return OkStatus();
  if (bytes_since_sync_ == 0) return OkStatus();
  if (::fsync(fd_) != 0) {
    return InternalError(StrFormat("wal fsync: %s", strerror(errno)));
  }
  synced_bytes_ += bytes_since_sync_;
  bytes_since_sync_ = 0;
  return OkStatus();
}

Status WalWriter::TrimBelow(uint64_t index) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  DSMS_RETURN_IF_ERROR(ListSegments(options_.dir, &segments));
  // Segment i holds indices [first_i, first_{i+1}); it is reclaimable when
  // the next segment starts at or below the checkpoint frontier. The
  // filename carries first_i, so no segment needs to be opened.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first > index) break;
    if (segments[i].first == segment_first_) break;  // never the active one
    ::unlink(segments[i].second.c_str());
  }
  return OkStatus();
}

Status ReadWalTail(const std::string& dir, uint64_t from_index,
                   std::vector<WalRecord>* out, uint64_t* next_index,
                   uint64_t* truncated_tail_bytes) {
  out->clear();
  *next_index = from_index;
  *truncated_tail_bytes = 0;
  std::vector<std::pair<uint64_t, std::string>> segments;
  DSMS_RETURN_IF_ERROR(ListSegments(dir, &segments));
  if (segments.empty()) return OkStatus();

  bool torn = false;
  for (size_t si = 0; si < segments.size(); ++si) {
    const std::string& path = segments[si].second;
    if (torn) {
      // Everything after the torn point is unreachable: a record is only
      // meaningful if every earlier record exists.
      struct stat st;
      if (::stat(path.c_str(), &st) == 0) {
        *truncated_tail_bytes += static_cast<uint64_t>(st.st_size);
      }
      ::unlink(path.c_str());
      continue;
    }
    std::string bytes;
    DSMS_RETURN_IF_ERROR(ReadWholeFile(path, &bytes));

    uint64_t index = segments[si].first;
    size_t good_end = 0;  // offset just past the last valid record
    if (bytes.size() >= kSegmentHeaderBytes &&
        memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) == 0) {
      StateReader header(bytes.data() + sizeof(kWalMagic), 8);
      uint64_t declared = header.U64();
      if (declared == segments[si].first) {
        good_end = kSegmentHeaderBytes;
        size_t pos = kSegmentHeaderBytes;
        while (pos + kRecordHeaderBytes <= bytes.size()) {
          StateReader rh(bytes.data() + pos, kRecordHeaderBytes);
          uint32_t len = rh.U32();
          uint32_t crc = rh.U32();
          if (pos + kRecordHeaderBytes + len > bytes.size()) break;
          const char* body = bytes.data() + pos + kRecordHeaderBytes;
          if (Crc32(body, len) != crc) break;
          StateReader pr(body, len);
          WalRecord record;
          record.index = index;
          record.arrival = pr.Ts();
          record.conn_id = pr.I64();
          uint32_t frame_len = pr.U32();
          if (!pr.ok() || pr.remaining() != frame_len) break;
          record.frame.assign(body + (len - frame_len), frame_len);
          pos += kRecordHeaderBytes + len;
          good_end = pos;
          ++index;
          if (record.index >= from_index) out->push_back(std::move(record));
        }
      }
    }
    if (good_end < bytes.size()) {
      // Torn tail (or a corrupt header): drop the unusable suffix on disk
      // too, so the writer can append right after the last valid record.
      torn = true;
      *truncated_tail_bytes += bytes.size() - good_end;
      if (good_end == 0) {
        ::unlink(path.c_str());
      } else if (::truncate(path.c_str(),
                            static_cast<off_t>(good_end)) != 0) {
        return InternalError(StrFormat("truncate %s: %s", path.c_str(),
                                       strerror(errno)));
      }
    }
    if (good_end > 0) *next_index = index;
  }
  if (*next_index < from_index) *next_index = from_index;
  return OkStatus();
}

}  // namespace dsms
