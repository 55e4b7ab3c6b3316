module gokoala/benchmark

go 1.22

require gokoala v0.0.0

replace gokoala => ../
