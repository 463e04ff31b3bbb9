// pipebench is a module of its own so the benchmark builds from its own
// build file; the module path keeps it inside the winlab import tree, which
// is what lets it import winlab/internal/... through the replace below.
module winlab/tools/pipebench

go 1.22

require winlab v0.0.0

replace winlab => ../..
