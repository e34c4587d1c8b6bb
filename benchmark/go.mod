module copydetect/benchmark

go 1.21

require copydetect v0.0.0

replace copydetect => ../
