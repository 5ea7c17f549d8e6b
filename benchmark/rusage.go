package main

// readUsage returns the process's user+system CPU seconds and its peak
// resident set in MB. It reads zeros on platforms without getrusage;
// rusage_unix.go replaces it at start-up.
var readUsage = func() (cpuS, maxRSSMB float64) { return 0, 0 }
