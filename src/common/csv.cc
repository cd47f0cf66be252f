#include "common/csv.h"

#include <sstream>

#include "common/logging.h"
#include "common/strings.h"

namespace gaia {

namespace {

Result<CsvTable>
parseStream(std::istream &in, const std::string &context)
{
    std::string line;
    if (!std::getline(in, line))
        return Status::parseError("empty CSV input: ", context);

    std::vector<std::string> header;
    for (const auto &field : split(line, ','))
        header.emplace_back(trim(field));
    if (header.empty()) {
        return Status::parseError("CSV header has no columns: ",
                                  context);
    }

    std::vector<std::vector<std::string>> rows;
    std::size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (trim(line).empty())
            continue;
        std::vector<std::string> row;
        for (const auto &field : split(line, ','))
            row.emplace_back(trim(field));
        if (row.size() != header.size()) {
            return Status::parseError(
                "CSV row ", line_no, " has ", row.size(),
                " fields, expected ", header.size(), ": ", context);
        }
        rows.push_back(std::move(row));
    }
    return CsvTable(context, std::move(header), std::move(rows));
}

} // namespace

CsvTable::CsvTable(std::string name, std::vector<std::string> header,
                   std::vector<std::vector<std::string>> rows)
    : name_(std::move(name)), header_(std::move(header)),
      rows_(std::move(rows))
{
    for (const auto &row : rows_) {
        GAIA_ASSERT(row.size() == header_.size(),
                    "ragged CSV row of width ", row.size());
    }
}

Result<std::size_t>
CsvTable::tryColumnIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < header_.size(); ++i) {
        if (header_[i] == name)
            return i;
    }
    return Status::notFound("CSV column '", name, "' not found");
}

const std::string &
CsvTable::cell(std::size_t row, std::size_t col) const
{
    GAIA_ASSERT(row < rows_.size(), "CSV row out of range: ", row);
    GAIA_ASSERT(col < header_.size(), "CSV column out of range: ", col);
    return rows_[row][col];
}

Result<double>
CsvTable::tryCellDouble(std::size_t row, std::size_t col) const
{
    Result<double> value =
        tryParseDouble(cell(row, col), cellContext(row, col));
    if (!value.isOk())
        return Status::parseError(name_, ": ", value.status().message());
    return value;
}

Result<std::int64_t>
CsvTable::tryCellInt(std::size_t row, std::size_t col) const
{
    Result<std::int64_t> value =
        tryParseInt(cell(row, col), cellContext(row, col));
    if (!value.isOk())
        return Status::parseError(name_, ": ", value.status().message());
    return value;
}

std::string
CsvTable::cellContext(std::size_t row, std::size_t col) const
{
    std::ostringstream ctx;
    ctx << "row " << row << ", column '" << header_[col] << "'";
    return ctx.str();
}

Result<std::vector<double>>
CsvTable::tryColumnDoubles(const std::string &name) const
{
    GAIA_TRY_ASSIGN(const std::size_t col, tryColumnIndex(name));
    std::vector<double> out;
    out.reserve(rows_.size());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        GAIA_TRY_ASSIGN(const double value, tryCellDouble(r, col));
        out.push_back(value);
    }
    return out;
}

Result<CsvTable>
tryReadCsv(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::notFound("cannot open CSV file: ", path);
    return parseStream(in, path);
}

Result<CsvTable>
tryReadCsvText(const std::string &text, const std::string &context)
{
    std::istringstream in(text);
    return parseStream(in, context);
}

Result<CsvWriter>
CsvWriter::open(const std::string &path, std::vector<std::string> header)
{
    GAIA_ASSERT(!header.empty(), "CSV writer needs a non-empty header");
    std::ofstream out(path);
    if (!out)
        return Status::invalidArgument(
            "cannot open CSV file for writing: ", path);
    CsvWriter writer(path, header.size(), std::move(out));
    writer.writeRow(header);
    return writer;
}

CsvWriter::CsvWriter(std::string path, std::size_t width,
                     std::ofstream out)
    : path_(std::move(path)), width_(width), out_(std::move(out))
{
}

void
CsvWriter::writeRow(const std::vector<std::string> &fields)
{
    GAIA_ASSERT(fields.size() == width_, "CSV row width ",
                fields.size(), " != header width ", width_);
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0)
            out_ << ',';
        out_ << fields[i];
    }
    out_ << '\n';
}

} // namespace gaia
