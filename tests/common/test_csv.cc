/** @file Tests for the CSV reader/writer. */

#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

namespace gaia {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

CsvTable
mustParse(const std::string &text)
{
    Result<CsvTable> table = tryReadCsvText(text);
    EXPECT_TRUE(table.isOk()) << table.status().toString();
    return std::move(table).value();
}

TEST(Csv, ParseTextWithHeaderAndRows)
{
    const CsvTable t = mustParse("a,b\n1,2\n3,4\n");
    EXPECT_EQ(t.columnCount(), 2u);
    EXPECT_EQ(t.rowCount(), 2u);
    EXPECT_EQ(t.cell(0, 0), "1");
    const Result<std::int64_t> i = t.tryCellInt(1, 1);
    ASSERT_TRUE(i.isOk());
    EXPECT_EQ(i.value(), 4);
    const Result<double> d = t.tryCellDouble(1, 0);
    ASSERT_TRUE(d.isOk());
    EXPECT_DOUBLE_EQ(d.value(), 3.0);
}

TEST(Csv, TrimsFieldsAndSkipsBlankLines)
{
    const CsvTable t = mustParse(" a , b \n 1 , 2 \n\n 3 , 4 \n");
    const Result<std::size_t> col = t.tryColumnIndex("a");
    ASSERT_TRUE(col.isOk());
    EXPECT_EQ(col.value(), 0u);
    EXPECT_EQ(t.rowCount(), 2u);
    EXPECT_EQ(t.cell(1, 1), "4");
}

TEST(Csv, ColumnExtraction)
{
    const CsvTable t = mustParse("x,y\n1,10\n2,20\n3,30\n");
    const Result<std::vector<double>> ys = t.tryColumnDoubles("y");
    ASSERT_TRUE(ys.isOk());
    ASSERT_EQ(ys.value().size(), 3u);
    EXPECT_DOUBLE_EQ(ys.value()[2], 30.0);
}

TEST(Csv, StructuralErrorsAreStatuses)
{
    const Result<CsvTable> empty = tryReadCsvText("");
    ASSERT_FALSE(empty.isOk());
    EXPECT_NE(empty.status().message().find("empty CSV"),
              std::string::npos);

    const Result<CsvTable> ragged = tryReadCsvText("a,b\n1\n");
    ASSERT_FALSE(ragged.isOk());
    EXPECT_NE(
        ragged.status().message().find("has 1 fields, expected 2"),
        std::string::npos);

    const CsvTable t = mustParse("a\n1\n");
    const Result<std::size_t> missing = t.tryColumnIndex("missing");
    ASSERT_FALSE(missing.isOk());
    EXPECT_EQ(missing.status().code(), ErrorCode::NotFound);

    const Result<CsvTable> absent =
        tryReadCsv("/nonexistent/file.csv");
    ASSERT_FALSE(absent.isOk());
    EXPECT_EQ(absent.status().code(), ErrorCode::NotFound);
}

TEST(Csv, CellParseErrorsAreStatuses)
{
    const CsvTable t = mustParse("a,b\n1,oops\n");
    const Result<double> bad = t.tryCellDouble(0, 1);
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().code(), ErrorCode::ParseError);
    const Result<std::vector<double>> col = t.tryColumnDoubles("b");
    EXPECT_FALSE(col.isOk());
}

TEST(Csv, WriterRoundTrip)
{
    const std::string path = tempPath("roundtrip.csv");
    {
        CsvWriter w =
            CsvWriter::open(path, {"id", "value"}).value();
        w.writeRow({"1", "3.5"});
        w.writeRow({"2", "4.5"});
    }
    Result<CsvTable> table = tryReadCsv(path);
    ASSERT_TRUE(table.isOk()) << table.status().toString();
    const CsvTable &t = table.value();
    EXPECT_EQ(t.rowCount(), 2u);
    const Result<double> d = t.tryCellDouble(1, 1);
    ASSERT_TRUE(d.isOk());
    EXPECT_DOUBLE_EQ(d.value(), 4.5);
    std::remove(path.c_str());
}

TEST(CsvDeath, WriterRejectsRaggedRows)
{
    const std::string path = tempPath("ragged.csv");
    CsvWriter w =
        CsvWriter::open(path, {"a", "b"}).value();
    EXPECT_DEATH(w.writeRow({"only-one"}), "row width 1");
    std::remove(path.c_str());
}

} // namespace
} // namespace gaia
