package main

import "syscall"

// childAttr makes the kernel kill a child when the benchmark dies, so not
// even a SIGKILL of the benchmark leaves a daemon behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
