#include "core/objectives.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <numeric>

#include "core/fitness.h"
#include "support/logging.h"
#include "support/strings.h"

namespace gevo::core {

namespace {

constexpr Objective kAllObjectives[] = {Objective::Time, Objective::Sectors,
                                        Objective::Divergence};

std::string
lowered(std::string_view text)
{
    std::string out(text);
    for (auto& c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::string
registeredObjectiveNames()
{
    std::string known;
    for (const auto o : kAllObjectives)
        known += (known.empty() ? "" : ", ") + std::string(objectiveName(o));
    return known;
}

} // namespace

std::string_view
objectiveName(Objective o)
{
    switch (o) {
    case Objective::Time:
        return "cycles";
    case Objective::Sectors:
        return "sectors";
    case Objective::Divergence:
        return "divergence";
    }
    GEVO_FATAL("objectiveName: bad objective %u",
               static_cast<unsigned>(o));
}

Objective
objectiveByName(const std::string& name)
{
    const std::string n = lowered(name);
    if (n == "cycles" || n == "time" || n == "ms")
        return Objective::Time;
    if (n == "sectors" || n == "memory")
        return Objective::Sectors;
    if (n == "divergence" || n == "div")
        return Objective::Divergence;
    GEVO_FATAL("unknown objective '%s' (registered: %s)", name.c_str(),
               registeredObjectiveNames().c_str());
}

std::vector<Objective>
resolveObjectiveList(const std::string& csv)
{
    if (lowered(trim(csv)) == "all")
        return {kAllObjectives,
                kAllObjectives + std::size(kAllObjectives)};
    // split() yields at least one entry even for an empty csv, so the
    // per-entry emptiness check also covers the empty-list case.
    std::vector<Objective> out;
    for (const auto& raw : split(csv, ',')) {
        const auto name = std::string(trim(raw));
        if (name.empty())
            GEVO_FATAL("empty objective name in list '%s' (registered: "
                       "%s)",
                       csv.c_str(), registeredObjectiveNames().c_str());
        const Objective o = objectiveByName(name);
        if (std::find(out.begin(), out.end(), o) != out.end())
            GEVO_FATAL("duplicate objective '%s' in list '%s'",
                       name.c_str(), csv.c_str());
        out.push_back(o);
    }
    return out;
}

std::string
objectiveListName(const std::vector<Objective>& objectives)
{
    std::string out;
    for (const auto o : objectives) {
        if (!out.empty())
            out += ',';
        out += objectiveName(o);
    }
    return out;
}

bool
dominates(const FitnessResult& a, const FitnessResult& b,
          const std::vector<Objective>& objectives)
{
    if (!a.valid)
        return false;
    if (!b.valid)
        return true;
    bool strictlyBetter = false;
    for (const auto o : objectives) {
        const auto i = static_cast<std::size_t>(o);
        const double va = a.objective(i);
        const double vb = b.objective(i);
        if (va > vb)
            return false;
        if (va < vb)
            strictlyBetter = true;
    }
    return strictlyBetter;
}

std::vector<ParetoScore>
paretoScores(const std::vector<const FitnessResult*>& results,
             const std::vector<std::string>& keys,
             const std::vector<Objective>& objectives)
{
    const std::size_t n = results.size();
    GEVO_ASSERT(keys.size() == n, "paretoScores: keys/results mismatch");
    std::vector<ParetoScore> scores(n);
    if (n == 0)
        return scores;

    // Fast non-dominated sort: O(n^2) domination counting, which is
    // plenty for population-sized pools.
    std::vector<std::uint32_t> dominatedBy(n, 0);
    std::vector<std::vector<std::uint32_t>> dominatees(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = i + 1; j < n; ++j) {
            if (dominates(*results[i], *results[j], objectives)) {
                dominatees[i].push_back(j);
                ++dominatedBy[j];
            } else if (dominates(*results[j], *results[i], objectives)) {
                dominatees[j].push_back(i);
                ++dominatedBy[i];
            }
        }
    }
    std::vector<std::uint32_t> front;
    for (std::uint32_t i = 0; i < n; ++i)
        if (dominatedBy[i] == 0)
            front.push_back(i);
    std::uint32_t rank = 0;
    std::vector<std::vector<std::uint32_t>> fronts;
    while (!front.empty()) {
        std::vector<std::uint32_t> next;
        for (const auto i : front) {
            scores[i].rank = rank;
            for (const auto j : dominatees[i])
                if (--dominatedBy[j] == 0)
                    next.push_back(j);
        }
        fronts.push_back(std::move(front));
        front = std::move(next);
        ++rank;
    }

    // Crowding distance, per front. The per-objective sweep orders by
    // (value, canonical key): equal objective values would otherwise
    // leave neighbour assignment — and with it the crowding sum —
    // dependent on input order.
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto& members : fronts) {
        if (members.size() <= 2) {
            for (const auto i : members)
                scores[i].crowding = inf;
            continue;
        }
        for (const auto o : objectives) {
            const auto dim = static_cast<std::size_t>(o);
            std::vector<std::uint32_t> order = members;
            std::sort(order.begin(), order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          const double va = results[a]->objective(dim);
                          const double vb = results[b]->objective(dim);
                          if (va != vb)
                              return va < vb;
                          return keys[a] < keys[b];
                      });
            const double lo = results[order.front()]->objective(dim);
            const double hi = results[order.back()]->objective(dim);
            scores[order.front()].crowding = inf;
            scores[order.back()].crowding = inf;
            if (hi <= lo)
                continue; // degenerate dimension: no spread to score
            for (std::size_t k = 1; k + 1 < order.size(); ++k) {
                const double prev =
                    results[order[k - 1]]->objective(dim);
                const double next =
                    results[order[k + 1]]->objective(dim);
                scores[order[k]].crowding += (next - prev) / (hi - lo);
            }
        }
    }
    return scores;
}

} // namespace gevo::core
