#include "stats/stats.hh"

#include <algorithm>
#include <iomanip>

#include "sim/logging.hh"
#include "stats/statfmt.hh"

namespace soefair
{
namespace statistics
{

Stat::Stat(Group *parent, std::string name, std::string desc)
    : statName(std::move(name)), statDesc(std::move(desc))
{
    soefair_assert(parent != nullptr, "stat '", statName, "' needs a group");
    parent->addStat(this);
}

namespace
{

void
emitLine(statfmt::Writer &os, const std::string &prefix,
         const std::string &name, double value, const std::string &desc)
{
    os << std::left << std::setw(44) << (prefix + name) << " "
       << std::right << std::setw(14) << statfmt::stat(value)
       << "  # " << desc << "\n";
}

} // namespace

void
Counter::dump(statfmt::Writer &os, const std::string &prefix) const
{
    emitLine(os, prefix, name(), double(count), description());
}

void
Average::sample(double v)
{
    if (n == 0) {
        mn = mx = v;
    } else {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
    }
    ++n;
    sum += v;
}

void
Average::dump(statfmt::Writer &os, const std::string &prefix) const
{
    emitLine(os, prefix, name() + ".mean", mean(), description());
    emitLine(os, prefix, name() + ".min", minimum(), description());
    emitLine(os, prefix, name() + ".max", maximum(), description());
    emitLine(os, prefix, name() + ".count", double(n), description());
}

void
Average::reset()
{
    n = 0;
    sum = mn = mx = 0.0;
}

Histogram::Histogram(Group *parent, std::string name, std::string desc,
                     unsigned buckets)
    : Stat(parent, std::move(name), std::move(desc)),
      counts(std::max(1u, buckets), 0)
{
}

void
Histogram::sample(std::uint64_t v)
{
    unsigned b = 0;
    std::uint64_t x = v;
    while (x > 1 && b + 1 < counts.size()) {
        x >>= 1;
        ++b;
    }
    ++counts[b];
    ++total;
    sum += double(v);
}

void
Histogram::dump(statfmt::Writer &os, const std::string &prefix) const
{
    emitLine(os, prefix, name() + ".mean", mean(), description());
    emitLine(os, prefix, name() + ".count", double(total), description());
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        emitLine(os, prefix, name() + ".bucket" + std::to_string(i),
                 double(counts[i]), description());
    }
}

void
Histogram::reset()
{
    std::fill(counts.begin(), counts.end(), 0);
    total = 0;
    sum = 0.0;
}

Group::Group(std::string name, Group *parentGroup)
    : groupName(std::move(name)), parent(parentGroup)
{
    if (parent)
        parent->addChild(this);
}

Group::~Group()
{
    if (parent)
        parent->removeChild(this);
}

std::string
Group::path() const
{
    if (!parent)
        return groupName;
    auto p = parent->path();
    return p.empty() ? groupName : p + "." + groupName;
}

void
Group::dump(std::ostream &os) const
{
    statfmt::Writer text;
    dumpTo(text);
    os << text.str();
}

void
Group::dumpTo(statfmt::Writer &os) const
{
    const std::string prefix = path().empty() ? "" : path() + ".";
    for (const Stat *s : stats)
        s->dump(os, prefix);
    for (const Group *g : children)
        g->dumpTo(os);
}

void
Group::resetStats()
{
    for (Stat *s : stats)
        s->reset();
    for (Group *g : children)
        g->resetStats();
}

void
Group::checkNameIsFree(const std::string &name) const
{
    // A stat and a child group sharing a name collide in the dump
    // paths too, so both name spaces are one.
    for (const Stat *s : stats) {
        if (s->name() == name)
            panic("stat group '", path(), "' already holds a stat named '",
                  name, "'");
    }
    for (const Group *g : children) {
        if (g->name() == name)
            panic("stat group '", path(), "' already holds a group named '",
                  name, "'");
    }
}

void
Group::addStat(Stat *s)
{
    checkNameIsFree(s->name());
    stats.push_back(s);
}

void
Group::addChild(Group *g)
{
    checkNameIsFree(g->name());
    children.push_back(g);
}

void
Group::removeChild(Group *g)
{
    children.erase(std::remove(children.begin(), children.end(), g),
                   children.end());
}

} // namespace statistics
} // namespace soefair
