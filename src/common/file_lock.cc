#include "common/file_lock.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/logging.hh"

namespace tea {

namespace {

/** Injected lock-acquisition failure (simulates a contended lock). */
Failpoint fpLockAcquire("cache.lock", EAGAIN);

} // namespace

bool
FileLock::acquire(const std::string &path, unsigned timeout_ms)
{
    release();
    if (TEA_FAILPOINT(fpLockAcquire)) {
        errno = fpLockAcquire.failErrno();
        return false;
    }

    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
    if (fd < 0) {
        tea_warn("file lock: cannot create '%s' (%s)", path.c_str(),
                 errnoString(errno).c_str());
        return false;
    }

    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        if (::flock(fd, LOCK_EX | LOCK_NB) == 0)
            break;
        if (errno != EWOULDBLOCK && errno != EINTR) {
            tea_warn("file lock: flock('%s') failed (%s)", path.c_str(),
                     errnoString(errno).c_str());
            ::close(fd);
            return false;
        }
        if (Clock::now() >= deadline) {
            ::close(fd);
            return false; // contended: caller degrades
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // Record the holder for post-mortem debugging; the content is
    // advisory only and may be stale after takeover — the flock, not
    // the bytes, is the lock.
    char pid[32];
    int n = std::snprintf(pid, sizeof(pid), "%ld\n",
                          static_cast<long>(::getpid()));
    if (n > 0) {
        // Best effort: an unwritable pid note must not fail the lock.
        ::ftruncate(fd, 0);
        [[maybe_unused]] ssize_t w =
            ::write(fd, pid, static_cast<std::size_t>(n));
    }

    fd_ = fd;
    path_ = path;
    return true;
}

void
FileLock::release()
{
    if (fd_ < 0)
        return;
    // Closing the descriptor drops the flock; nothing to check.
    ::close(fd_);
    fd_ = -1;
    path_.clear();
}

} // namespace tea
