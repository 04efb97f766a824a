#include "core/fault_inject.h"

#include <csignal>
#include <cstdlib>
#include <string>
#include <string_view>

#include <time.h>

#include "support/io.h"
#include "support/logging.h"
#include "support/strings.h"

namespace gevo::core {

std::vector<FaultSpec>
parseFaultSpecs()
{
    std::vector<FaultSpec> specs;
    const char* env = std::getenv("GEVO_FAULT_INJECT");
    if (env == nullptr || *env == '\0')
        return specs;
    for (const auto& part : split(env, ',')) {
        const auto text = trim(part);
        if (text.empty())
            GEVO_FATAL("GEVO_FAULT_INJECT: empty spec in '%s'", env);
        const auto sep = text.find('@');
        if (sep == std::string_view::npos)
            GEVO_FATAL("GEVO_FAULT_INJECT: expected kind@index, got '%s'",
                       std::string(text).c_str());
        const auto kindName = text.substr(0, sep);
        FaultSpec spec;
        if (kindName == "crash") {
            spec.kind = FaultKind::Crash;
        } else if (kindName == "hang") {
            spec.kind = FaultKind::Hang;
        } else if (kindName == "garbage") {
            spec.kind = FaultKind::Garbage;
        } else if (kindName == "disconnect") {
            spec.kind = FaultKind::Disconnect;
        } else if (kindName == "delay") {
            spec.kind = FaultKind::Delay;
        } else if (kindName == "truncate") {
            spec.kind = FaultKind::Truncate;
        } else {
            GEVO_FATAL("GEVO_FAULT_INJECT: unknown kind '%s' (want crash/"
                       "hang/garbage/disconnect/delay/truncate)",
                       std::string(kindName).c_str());
        }
        auto index = text.substr(sep + 1);
        if (!index.empty() && index.back() == '+') {
            spec.fromHere = true;
            index.remove_suffix(1);
        }
        if (index.empty() ||
            index.find_first_not_of("0123456789") != std::string_view::npos)
            GEVO_FATAL("GEVO_FAULT_INJECT: bad index in '%s'",
                       std::string(text).c_str());
        spec.at = std::strtoull(std::string(index).c_str(), nullptr, 10);
        specs.push_back(spec);
    }
    return specs;
}

std::optional<FaultKind>
faultFor(const std::vector<FaultSpec>& specs, std::uint64_t seq)
{
    for (const auto& spec : specs) {
        if (spec.fromHere ? seq >= spec.at : seq == spec.at)
            return spec.kind;
    }
    return std::nullopt;
}

void
faultCrash()
{
    std::raise(SIGSEGV);
    std::_Exit(139); // Not reached unless SIGSEGV is blocked.
}

void
faultHang()
{
    for (;;) {
        struct timespec ts = {1, 0};
        nanosleep(&ts, nullptr);
    }
}

void
faultGarbage(int fd)
{
    static constexpr char junk[] = "these bytes are not a response frame";
    writeAll(fd, junk, sizeof(junk));
}

} // namespace gevo::core
