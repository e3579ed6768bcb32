#include "recovery/checkpoint.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/files.h"
#include "common/strings.h"
#include "recovery/crc32.h"
#include "recovery/state_codec.h"

namespace dsms {
namespace {

constexpr char kCkptMagic[8] = {'D', 'S', 'M', 'S', 'C', 'K', 'P', '2'};

std::string CheckpointName(uint64_t id) {
  return StrFormat("checkpoint-%020llu.ckpt",
                   static_cast<unsigned long long>(id));
}

bool ParseCheckpointName(const std::string& name, uint64_t* id) {
  // "checkpoint-" + 20 digits + ".ckpt"
  if (name.size() != 11 + 20 + 5) return false;
  if (name.compare(0, 11, "checkpoint-") != 0) return false;
  if (name.compare(31, 5, ".ckpt") != 0) return false;
  uint64_t v = 0;
  for (size_t i = 11; i < 31; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

Status ListCheckpoints(const std::string& dir,
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
    if (ParseCheckpointName(entry->d_name, &id)) {
      out->emplace_back(id, dir + "/" + entry->d_name);
    }
  }
  ::closedir(d);
  std::sort(out->begin(), out->end());
  return OkStatus();
}

std::string SerializeImage(const CheckpointImage& image) {
  StateWriter w;
  w.U64(image.checkpoint_id);
  w.Ts(image.clock_now);
  w.Ts(image.frontier);
  w.U64(image.wal_replay_from);
  w.U32(static_cast<uint32_t>(image.operator_blobs.size()));
  for (const auto& [id, blob] : image.operator_blobs) {
    w.I64(id);
    w.Blob(blob);
  }
  w.U32(static_cast<uint32_t>(image.buffer_blobs.size()));
  for (const auto& [id, blob] : image.buffer_blobs) {
    w.I64(id);
    w.Blob(blob);
  }
  w.Blob(image.executor_blob);
  w.Blob(image.net_blob);
  w.Blob(image.storage_blob);
  w.U32(static_cast<uint32_t>(image.durable_seqs.size()));
  for (const auto& [stream, seq] : image.durable_seqs) {
    w.I64(stream);
    w.U64(seq);
  }
  w.U32(static_cast<uint32_t>(image.sink_offsets.size()));
  for (const auto& [name, offset] : image.sink_offsets) {
    w.Str(name);
    w.U64(offset);
  }
  return w.Take();
}

bool DeserializeImage(const std::string& body, CheckpointImage* image) {
  StateReader r(body);
  image->checkpoint_id = r.U64();
  image->clock_now = r.Ts();
  image->frontier = r.Ts();
  image->wal_replay_from = r.U64();
  uint32_t n = r.U32();
  image->operator_blobs.clear();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    int32_t id = static_cast<int32_t>(r.I64());
    image->operator_blobs.emplace_back(id, r.Blob());
  }
  n = r.U32();
  image->buffer_blobs.clear();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    int32_t id = static_cast<int32_t>(r.I64());
    image->buffer_blobs.emplace_back(id, r.Blob());
  }
  image->executor_blob = r.Blob();
  image->net_blob = r.Blob();
  image->storage_blob = r.Blob();
  n = r.U32();
  image->durable_seqs.clear();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    int32_t stream = static_cast<int32_t>(r.I64());
    image->durable_seqs.emplace_back(stream, r.U64());
  }
  n = r.U32();
  image->sink_offsets.clear();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string name = r.Str();
    image->sink_offsets.emplace_back(std::move(name), r.U64());
  }
  return r.ok() && r.remaining() == 0;
}

}  // namespace

Status WriteCheckpointFile(const std::string& dir,
                           const CheckpointImage& image, int keep) {
  DSMS_RETURN_IF_ERROR(EnsureDir(dir));
  const std::string body = SerializeImage(image);
  std::string bytes(kCkptMagic, sizeof(kCkptMagic));
  StateWriter header;
  header.U64(body.size());
  header.U32(Crc32(body.data(), body.size()));
  bytes += header.data();
  bytes += body;

  const std::string final_path =
      dir + "/" + CheckpointName(image.checkpoint_id);
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
  // The temp file must be fully durable BEFORE the rename makes it visible
  // under the final name — otherwise a crash could leave a complete-looking
  // checkpoint with unflushed contents.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return InternalError(StrFormat("fsync: %s", strerror(errno)));
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return InternalError(StrFormat("rename %s: %s", final_path.c_str(),
                                   strerror(errno)));
  }

  if (keep > 0) {
    std::vector<std::pair<uint64_t, std::string>> existing;
    DSMS_RETURN_IF_ERROR(ListCheckpoints(dir, &existing));
    while (existing.size() > static_cast<size_t>(keep)) {
      ::unlink(existing.front().second.c_str());
      existing.erase(existing.begin());
    }
  }
  return OkStatus();
}

Result<CheckpointImage> LoadLatestCheckpoint(const std::string& dir,
                                             uint64_t* fallbacks) {
  std::vector<std::pair<uint64_t, std::string>> checkpoints;
  DSMS_RETURN_IF_ERROR(ListCheckpoints(dir, &checkpoints));
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    int fd = ::open(it->second.c_str(), O_RDONLY);
    if (fd < 0) continue;
    std::string bytes;
    char buf[64 * 1024];
    bool read_ok = true;
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        bytes.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) read_ok = false;
      break;
    }
    ::close(fd);
    CheckpointImage image;
    bool valid = read_ok && bytes.size() >= 20 &&
                 memcmp(bytes.data(), kCkptMagic, sizeof(kCkptMagic)) == 0;
    if (valid) {
      StateReader header(bytes.data() + 8, 12);
      uint64_t body_len = header.U64();
      uint32_t crc = header.U32();
      valid = bytes.size() == 20 + body_len;
      if (valid) {
        valid = Crc32(bytes.data() + 20, body_len) == crc;
      }
      if (valid) {
        valid = DeserializeImage(bytes.substr(20), &image);
      }
    }
    if (valid) return image;
    if (fallbacks != nullptr) ++*fallbacks;
  }
  return NotFoundError(
      StrFormat("no valid checkpoint in %s", dir.c_str()));
}

}  // namespace dsms
