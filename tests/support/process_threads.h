#ifndef ENTMATCHER_TESTS_SUPPORT_PROCESS_THREADS_H_
#define ENTMATCHER_TESTS_SUPPORT_PROCESS_THREADS_H_

#include <dirent.h>

#include <cstddef>

namespace entmatcher {

/// Threads of this process, from /proc/self/task (0 where it is missing).
inline size_t ProcessThreadCount() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

}  // namespace entmatcher

#endif  // ENTMATCHER_TESTS_SUPPORT_PROCESS_THREADS_H_
