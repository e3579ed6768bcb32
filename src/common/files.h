#ifndef DSMS_COMMON_FILES_H_
#define DSMS_COMMON_FILES_H_

#include <string>

#include "common/status.h"

namespace dsms {

/// Creates directory `dir` and any missing parent directories (mode 0777,
/// before umask). An existing `dir` is not an error.
Status EnsureDir(const std::string& dir);

}  // namespace dsms

#endif  // DSMS_COMMON_FILES_H_
