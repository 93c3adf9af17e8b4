#ifndef ENTMATCHER_TESTS_SUPPORT_PROCESS_THREADS_H_
#define ENTMATCHER_TESTS_SUPPORT_PROCESS_THREADS_H_

#include <dirent.h>

#include <cstddef>
#include <fstream>
#include <string>

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

/// "tid:name" of every thread of this process, from /proc/self/task/*/comm,
/// so a failed thread bound can say which threads it counted.
inline std::string ProcessThreadNames() {
  std::string names;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return names;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream comm(std::string("/proc/self/task/") + entry->d_name +
                       "/comm");
    std::string name;
    std::getline(comm, name);
    names += (names.empty() ? "" : " ") + std::string(entry->d_name) + ":" +
             name;
  }
  ::closedir(dir);
  return names;
}

}  // namespace entmatcher

#endif  // ENTMATCHER_TESTS_SUPPORT_PROCESS_THREADS_H_
