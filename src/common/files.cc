#include "common/files.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace dsms {

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) return OkStatus();
  if (errno == ENOENT) {
    // A parent is missing: create it, then retry.
    const size_t end = dir.find_last_not_of('/');
    const size_t slash =
        end == std::string::npos ? std::string::npos : dir.rfind('/', end);
    if (slash != std::string::npos && slash > 0) {
      DSMS_RETURN_IF_ERROR(EnsureDir(dir.substr(0, slash)));
      if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) {
        return OkStatus();
      }
    }
  }
  return InternalError(
      StrFormat("mkdir %s: %s", dir.c_str(), strerror(errno)));
}

}  // namespace dsms
