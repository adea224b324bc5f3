#include "common/table.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace tea {

void
Table::header(std::vector<std::string> cells)
{
    tea_assert(!hasHeader_, "table already has a header");
    rows_.insert(rows_.begin(), Row{std::move(cells), false});
    hasHeader_ = true;
}

void
Table::row(std::vector<std::string> cells)
{
    rows_.push_back(Row{std::move(cells), false});
}

void
Table::separator()
{
    rows_.push_back(Row{{}, true});
}

std::string
Table::render() const
{
    std::vector<std::size_t> widths;
    for (const auto &r : rows_) {
        if (r.isSeparator)
            continue;
        if (r.cells.size() > widths.size())
            widths.resize(r.cells.size(), 0);
        for (std::size_t i = 0; i < r.cells.size(); ++i)
            widths[i] = std::max(widths[i], r.cells[i].size());
    }

    std::ostringstream out;
    auto emit_sep = [&]() {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            out << '+' << std::string(widths[i] + 2, '-');
        }
        out << "+\n";
    };

    bool first = true;
    for (const auto &r : rows_) {
        if (r.isSeparator) {
            emit_sep();
            continue;
        }
        if (first) {
            emit_sep();
            first = false;
        }
        for (std::size_t i = 0; i < widths.size(); ++i) {
            std::string cell = i < r.cells.size() ? r.cells[i] : "";
            out << "| " << cell
                << std::string(widths[i] - cell.size() + 1, ' ');
        }
        out << "|\n";
        if (hasHeader_ && &r == &rows_.front())
            emit_sep();
    }
    emit_sep();
    return out.str();
}

void
Table::print() const
{
    // Terminal output, not file I/O: no seams apply.
    // tea_lint: allow(raw-io)
    std::fputs(render().c_str(), stdout);
}

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtPercent(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
    return buf;
}

std::string
fmtCount(std::uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    int since_sep = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (since_sep == 3) {
            out.push_back(',');
            since_sep = 0;
        }
        out.push_back(*it);
        ++since_sep;
    }
    std::reverse(out.begin(), out.end());
    return out;
}

std::string
bar(double value, double full_scale, int width)
{
    if (full_scale <= 0.0)
        full_scale = 1.0;
    int n = static_cast<int>(value / full_scale * width + 0.5);
    n = std::clamp(n, 0, width);
    return std::string(static_cast<std::size_t>(n), '#');
}

std::string
stackedBar(const std::vector<double> &segments, double full_scale, int width)
{
    static const char glyphs[] = {'#', '=', '+', '-', 'o',
                                  '*', '.', '%', '@'};
    if (full_scale <= 0.0)
        full_scale = 1.0;
    std::string out;
    double acc = 0.0;
    int emitted = 0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
        acc += segments[i];
        int upto = static_cast<int>(acc / full_scale * width + 0.5);
        upto = std::clamp(upto, 0, width);
        char g = glyphs[i % sizeof(glyphs)];
        while (emitted < upto) {
            out.push_back(g);
            ++emitted;
        }
    }
    return out;
}

} // namespace tea
