#include "recovery/durable_sink.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <utility>

#include "common/files.h"
#include "common/strings.h"

namespace dsms {

DurableSink::DurableSink(std::string dir, std::string name)
    : dir_(std::move(dir)), name_(std::move(name)) {}

DurableSink::~DurableSink() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

std::string DurableSink::path() const {
  return dir_ + "/sink-" + name_ + ".out";
}

Status DurableSink::Open(uint64_t resume_offset) {
  if (fd_ >= 0) return FailedPreconditionError("sink file already open");
  DSMS_RETURN_IF_ERROR(EnsureDir(dir_));
  const std::string p = path();
  fd_ = ::open(p.c_str(), O_WRONLY | O_CREAT, 0666);
  if (fd_ < 0) {
    return InternalError(StrFormat("open %s: %s", p.c_str(),
                                   strerror(errno)));
  }
  // Discard any suffix written after the checkpoint cut: those tuples will
  // be regenerated by replay, and keeping both copies would double them.
  if (::ftruncate(fd_, static_cast<off_t>(resume_offset)) != 0) {
    return InternalError(StrFormat("ftruncate %s: %s", p.c_str(),
                                   strerror(errno)));
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    return InternalError(StrFormat("lseek %s: %s", p.c_str(),
                                   strerror(errno)));
  }
  offset_ = resume_offset;
  return OkStatus();
}

void DurableSink::Write(const Tuple& tuple) {
  if (fd_ < 0 || !deferred_error_.ok()) return;
  std::string line = tuple.ToString();
  line.push_back('\n');
  size_t written = 0;
  while (written < line.size()) {
    ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      deferred_error_ = InternalError(
          StrFormat("sink write %s: %s", path().c_str(), strerror(errno)));
      return;
    }
    written += static_cast<size_t>(n);
  }
  offset_ += line.size();
}

void DurableSink::Attach(Sink* sink) {
  sink->set_callback(
      [this](const Tuple& tuple, Timestamp now) {
        (void)now;
        Write(tuple);
      });
}

Status DurableSink::Flush() {
  DSMS_RETURN_IF_ERROR(deferred_error_);
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    return InternalError(StrFormat("sink fsync: %s", strerror(errno)));
  }
  return OkStatus();
}

}  // namespace dsms
