/// \file
/// EINTR-safe full-buffer write on file descriptors: the transport under
/// the core/codec.h stream frames (reads go through FrameReader::fill).
/// Short writes are retried until the buffer completes or the peer is
/// genuinely gone — a peer closing mid-frame surfaces as `false`
/// here and as a ProtocolError/connection loss at the protocol layer,
/// never as process death (callers ignore SIGPIPE).

#ifndef GEVO_SUPPORT_IO_H
#define GEVO_SUPPORT_IO_H

#include <cerrno>
#include <cstddef>

#include <unistd.h>

namespace gevo {

/// Write all \p n bytes, retrying short writes and EINTR. False on any
/// hard error (EPIPE/ECONNRESET when the peer is gone).
inline bool
writeAll(int fd, const char* p, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

} // namespace gevo

#endif // GEVO_SUPPORT_IO_H
